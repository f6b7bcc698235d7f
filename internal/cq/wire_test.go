package cq

import (
	"testing"

	"mdq/internal/schema"
)

// TestQueryStringParseRoundTrip: Query.String renders the concrete
// syntax Parse accepts, structurally identically — the property that
// lets a coordinator ship a bound query to remote workers as text.
func TestQueryStringParseRoundTrip(t *testing.T) {
	texts := []string{
		`q(Conf, City) :- conf('DB', Conf, Start, End, City),
		                  weather(City, Temp, Start),
		                  Temp >= 28, Start >= '2007/03/14' {0.25}.`,
		`r(A) :- svc(A, B), other(B, C), A + B < 2000000 {0.01}, C != 'x y'.`,
		`s(X) :- svc(X, Y), Y >= 1.5e+06.`,
		// An embedded quote renders doubled, as the lexer reads it.
		`t(N) :- person('O''Brien', N), N != ''''.`,
	}
	for _, text := range texts {
		q, err := Parse(text)
		if err != nil {
			t.Fatalf("parse: %v\n%s", err, text)
		}
		back, err := Parse(q.String())
		if err != nil {
			t.Fatalf("re-parse of String output: %v\n%s", err, q.String())
		}
		if got, want := back.String(), q.String(); got != want {
			t.Fatalf("round trip not a fixpoint:\n first: %s\nsecond: %s", want, got)
		}
	}
}

// TestNumberExponentLiterals: the lexer accepts the scientific
// notation strconv's shortest 'g' rendering emits for large or tiny
// magnitudes, with and without explicit signs.
func TestNumberExponentLiterals(t *testing.T) {
	q, err := Parse(`q(X) :- s(X, Y), Y >= 2e+06, X < 1.5E3, Y != 2.5e-3.`)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2e+06, 1.5e3, 2.5e-3}
	for i, p := range q.Preds {
		v := p.R.Term.Const
		if v.Kind != schema.NumberValue || v.Num != want[i] {
			t.Fatalf("predicate %d parsed constant %v, want %g", i, v, want[i])
		}
	}
}
