package schema

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ValueKind discriminates the runtime representation of a constant.
type ValueKind int

const (
	// NullValue is the zero Value; it compares less than everything.
	NullValue ValueKind = iota
	// StringValue holds free text (city names, titles, …).
	StringValue
	// NumberValue holds a float64 (prices, temperatures, counts, …).
	NumberValue
	// DateValue holds a calendar date, stored as days since
	// 1970-01-01 so that date arithmetic ('2007/3/14' + 180) is
	// plain numeric arithmetic.
	DateValue
)

// Value is a constant flowing through queries and plans. Values are
// small and comparable; they are passed by value everywhere.
type Value struct {
	Kind ValueKind
	Str  string
	Num  float64 // number, or days since epoch for dates
}

// Null is the absent value.
var Null = Value{}

// S builds a string value.
func S(s string) Value { return Value{Kind: StringValue, Str: s} }

// N builds a number value.
func N(f float64) Value { return Value{Kind: NumberValue, Num: f} }

// D builds a date value from year, month, day.
func D(year int, month time.Month, day int) Value {
	t := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	return Value{Kind: DateValue, Num: float64(t.Unix() / 86400)}
}

// DateFromDays builds a date value from a days-since-epoch count.
func DateFromDays(days float64) Value {
	return Value{Kind: DateValue, Num: days}
}

// ParseDate recognizes 'YYYY/MM/DD' and 'YYYY-MM-DD'.
func ParseDate(s string) (Value, bool) {
	norm := strings.ReplaceAll(s, "/", "-")
	parts := strings.Split(norm, "-")
	if len(parts) != 3 {
		return Null, false
	}
	y, err1 := strconv.Atoi(parts[0])
	m, err2 := strconv.Atoi(parts[1])
	d, err3 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || err3 != nil {
		return Null, false
	}
	if y < 1000 || m < 1 || m > 12 || d < 1 || d > 31 {
		return Null, false
	}
	return D(y, time.Month(m), d), true
}

// IsNull reports whether the value is absent.
func (v Value) IsNull() bool { return v.Kind == NullValue }

// Numeric reports whether the value participates in arithmetic.
func (v Value) Numeric() bool { return v.Kind == NumberValue || v.Kind == DateValue }

// Time converts a date value back to a time.Time (UTC midnight).
func (v Value) Time() time.Time {
	return time.Unix(int64(v.Num)*86400, 0).UTC()
}

// String implements fmt.Stringer with the paper's literal syntax.
func (v Value) String() string {
	switch v.Kind {
	case NullValue:
		return "null"
	case StringValue:
		// An embedded quote is doubled, as the query lexer reads it.
		return "'" + strings.ReplaceAll(v.Str, "'", "''") + "'"
	case NumberValue:
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	case DateValue:
		return "'" + v.Time().Format("2006/01/02") + "'"
	default:
		return fmt.Sprintf("Value(%d)", int(v.Kind))
	}
}

// FormatRow renders a result row for display, one cell per value:
// strings unquoted, dates as YYYY-MM-DD, numbers with two decimals
// and a whole number's ".00" trimmed. mdqrun prints these cells and
// mdqserve returns them, so both show the same text.
func FormatRow(row []Value) []string {
	out := make([]string, len(row))
	for i, v := range row {
		switch v.Kind {
		case StringValue:
			out[i] = v.Str
		case DateValue:
			out[i] = v.Time().Format("2006-01-02")
		default:
			out[i] = strings.TrimSuffix(strconv.FormatFloat(v.Num, 'f', 2, 64), ".00")
		}
	}
	return out
}

// Key returns a compact representation usable as a map key component;
// unlike String it distinguishes kinds unambiguously.
func (v Value) Key() string {
	switch v.Kind {
	case NullValue:
		return "∅"
	case StringValue:
		return "s:" + v.Str
	case NumberValue:
		return "n:" + strconv.FormatFloat(v.Num, 'g', -1, 64)
	case DateValue:
		return "d:" + strconv.FormatFloat(v.Num, 'g', -1, 64)
	default:
		return "?"
	}
}

// Equal reports value equality. Numbers and dates compare by their
// numeric content regardless of kind, so that a date bound through a
// numeric expression still joins with a stored date.
func (v Value) Equal(w Value) bool {
	if v.Kind == NullValue || w.Kind == NullValue {
		return v.Kind == w.Kind
	}
	if v.Numeric() && w.Numeric() {
		return v.Num == w.Num
	}
	return v.Kind == w.Kind && v.Str == w.Str
}

// Compare orders values: nulls first, then numerics by value, then
// strings lexicographically; numerics sort before strings.
func (v Value) Compare(w Value) int {
	rank := func(x Value) int {
		switch {
		case x.Kind == NullValue:
			return 0
		case x.Numeric():
			return 1
		default:
			return 2
		}
	}
	rv, rw := rank(v), rank(w)
	if rv != rw {
		if rv < rw {
			return -1
		}
		return 1
	}
	switch rv {
	case 0:
		return 0
	case 1:
		switch {
		case v.Num < w.Num:
			return -1
		case v.Num > w.Num:
			return 1
		}
		return 0
	default:
		return strings.Compare(v.Str, w.Str)
	}
}

// Add returns v + w for numeric values (date + number = date).
func (v Value) Add(w Value) (Value, error) {
	if !v.Numeric() || !w.Numeric() {
		return Null, fmt.Errorf("schema: cannot add %s and %s", v, w)
	}
	kind := NumberValue
	if v.Kind == DateValue || w.Kind == DateValue {
		kind = DateValue
	}
	if v.Kind == DateValue && w.Kind == DateValue {
		// date + date is meaningless; degrade to number of days.
		kind = NumberValue
	}
	return Value{Kind: kind, Num: v.Num + w.Num}, nil
}

// Sub returns v - w for numeric values (date - date = number of days).
func (v Value) Sub(w Value) (Value, error) {
	if !v.Numeric() || !w.Numeric() {
		return Null, fmt.Errorf("schema: cannot subtract %s from %s", w, v)
	}
	kind := NumberValue
	if v.Kind == DateValue && w.Kind != DateValue {
		kind = DateValue
	}
	return Value{Kind: kind, Num: v.Num - w.Num}, nil
}
