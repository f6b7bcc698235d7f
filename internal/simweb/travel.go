// Package simweb provides the simulated deep-web sources used by the
// paper's experiments (§6): the travel services conf, weather,
// flight and hotel wrapped from conference-service.com,
// accuweather.com, expedia.com and bookings.com, plus the
// bioinformatics domain mentioned as a generalization.
//
// The datasets are synthetic but calibrated so that the call counts
// of Figure 11 are reproduced exactly:
//
//   - conf('DB', …) returns 71 tuples over 54 distinct cities;
//   - 16 of those tuples (11 distinct cities) pass the 28 °C filter;
//   - one hot city has no flights from Milano; the flights available
//     to the other ten sum to 284 tuples over the 16 passing tuples;
//   - consecutive conf tuples never share a city, and the filtered
//     hot subsequence never repeats a city back to back, so the
//     one-call cache saves nothing before the flight stage (as
//     measured by the paper);
//   - the weather source knows 220 cities, 11 of which are hot, so
//     profiling reproduces Table 1's 0.05 expected result size;
//   - conf hosts 100 conferences over 5 topics, so profiling by
//     topic reproduces Table 1's expected result size of 20.
//
// Latencies follow Table 1 (conf 1.2 s, weather 1.5 s, flight 9.7 s,
// hotel 4.9 s). The hotel and weather servers answer repeated
// requests — and later pages of an already-computed query — from
// their own cache (75 ms), while the flight server does not cache at
// all; both behaviours are reported in §6, and the hit latency is
// calibrated so plan S's no-cache makespan lands on the paper's
// 374 s.
package simweb

import (
	"fmt"
	"time"

	"mdq/internal/plan"
	"mdq/internal/schema"
	"mdq/internal/service"
	"mdq/internal/tabsvc"
)

// Calibration constants (see package comment).
const (
	TotalCities     = 220
	ConfCities      = 54
	HotCities       = 11
	DBConfTuples    = 71
	HotConfTuples   = 16
	FlightTupleSum  = 284
	TotalConfs      = 100
	HotTemperature  = 28
	LuxuryPerCity   = 40
	OtherCategories = 3
	OtherPerCity    = 15
)

// Table 1 latencies and the server-side cache behaviour of §6.
var (
	ConfLatency    = tabsvc.Latency{Base: 1200 * time.Millisecond, CacheHit: 75 * time.Millisecond}
	WeatherLatency = tabsvc.Latency{Base: 1500 * time.Millisecond, CacheHit: 75 * time.Millisecond}
	FlightLatency  = tabsvc.Latency{Base: 9700 * time.Millisecond} // Expedia does not cache (§6)
	HotelLatency   = tabsvc.Latency{Base: 4900 * time.Millisecond, CacheHit: 75 * time.Millisecond}
)

var hotCityNames = []string{
	"Cancun", "Bangkok", "Singapore", "Miami", "Dubai",
	"Cairo", "Phuket", "Honolulu", "Mumbai", "Jakarta", "Manila",
}

var coldCityNames = []string{
	"London", "Auckland", "Milano", "Paris", "Berlin", "Oslo", "Helsinki",
	"Vienna", "Prague", "Warsaw", "Dublin", "Edinburgh", "Boston", "Seattle",
	"Chicago", "Toronto", "Montreal", "Denver", "Portland", "Amsterdam",
	"Brussels", "Copenhagen", "Stockholm", "Zurich", "Geneva", "Munich",
	"Hamburg", "Lyon", "Turin", "Florence", "Bologna", "Madrid", "Porto",
	"Krakow", "Budapest", "Ljubljana", "Zagreb", "Bratislava", "Tallinn",
	"Riga", "Vilnius", "Reykjavik", "Bergen",
}

// TravelWorld bundles the four travel services, their registry and
// schema, and the calibrated ground-truth facts that tests assert.
type TravelWorld struct {
	Registry *service.Registry
	Schema   *schema.Schema

	Conf    *tabsvc.Table
	Weather *tabsvc.Table
	Flight  *tabsvc.Table
	Hotel   *tabsvc.Table
}

// TravelOptions tunes the simulated servers.
type TravelOptions struct {
	// JitterSigma adds deterministic log-normal latency noise (used
	// by the §6 multithreading experiment); 0 keeps Table 1's
	// constants.
	JitterSigma float64
	// DisableServerCache makes every request pay full latency.
	DisableServerCache bool
}

func (o TravelOptions) apply(l tabsvc.Latency) tabsvc.Latency {
	l.JitterSigma = o.JitterSigma
	if o.DisableServerCache {
		l.CacheHit = 0
	}
	return l
}

// TravelSignatures returns the schema of Figure 2 with the profiled
// statistics of Table 1. The weather erspi is registered as 1.0 (one
// temperature tuple per city/date); Table 1's 0.05 is the erspi with
// the query template's Temperature ≥ 28 predicate folded in (§3.4),
// which the running-example query carries as an explicit selectivity
// annotation.
func TravelSignatures() (conf, weather, flight, hotel *schema.Signature) {
	conf = &schema.Signature{
		Name: "conf",
		Attrs: []schema.Attribute{
			{Name: "Topic", Domain: schema.DomTopic},
			{Name: "Name", Domain: schema.DomName},
			{Name: "Start", Domain: schema.DomDate},
			{Name: "End", Domain: schema.DomDate},
			{Name: "City", Domain: schema.DomCity},
		},
		Patterns: []schema.AccessPattern{schema.MustPattern("ioooo"), schema.MustPattern("ooooi")},
		Kind:     schema.Exact,
		Stats:    schema.Stats{ERSPI: 20, ResponseTime: ConfLatency.Base},
	}
	weather = &schema.Signature{
		Name: "weather",
		Attrs: []schema.Attribute{
			{Name: "City", Domain: schema.DomCity},
			{Name: "Temperature", Domain: schema.DomTemp},
			{Name: "Date", Domain: schema.DomDate},
		},
		Patterns: []schema.AccessPattern{schema.MustPattern("ioi")},
		Kind:     schema.Exact,
		Stats:    schema.Stats{ERSPI: 1, ResponseTime: WeatherLatency.Base},
	}
	flight = &schema.Signature{
		Name: "flight",
		Attrs: []schema.Attribute{
			{Name: "From", Domain: schema.DomCity},
			{Name: "To", Domain: schema.DomCity},
			{Name: "OutDate", Domain: schema.DomDate},
			{Name: "RetDate", Domain: schema.DomDate},
			{Name: "OutTime", Domain: schema.DomTime},
			{Name: "RetTime", Domain: schema.DomTime},
			{Name: "Price", Domain: schema.DomPrice},
		},
		Patterns: []schema.AccessPattern{schema.MustPattern("iiiiooo")},
		Kind:     schema.Search,
		Stats:    schema.Stats{ERSPI: 14, ChunkSize: 25, ResponseTime: FlightLatency.Base},
	}
	hotel = &schema.Signature{
		Name: "hotel",
		Attrs: []schema.Attribute{
			{Name: "Name", Domain: schema.DomName},
			{Name: "City", Domain: schema.DomCity},
			{Name: "Category", Domain: schema.DomCat},
			{Name: "CheckInDate", Domain: schema.DomDate},
			{Name: "CheckOutDate", Domain: schema.DomDate},
			{Name: "Price", Domain: schema.DomPrice},
		},
		Patterns: []schema.AccessPattern{schema.MustPattern("oiiiio"), schema.MustPattern("oooooo")},
		Kind:     schema.Search,
		Stats:    schema.Stats{ERSPI: 21, ChunkSize: 5, ResponseTime: HotelLatency.Base},
	}
	return conf, weather, flight, hotel
}

// CityName returns the i-th city (0-based): the 11 hot cities first,
// then the 43 cold conference cities, then synthetic fillers up to
// TotalCities.
func CityName(i int) string {
	switch {
	case i < len(hotCityNames):
		return hotCityNames[i]
	case i < len(hotCityNames)+len(coldCityNames):
		return coldCityNames[i-len(hotCityNames)]
	default:
		return fmt.Sprintf("Newtown-%03d", i)
	}
}

// Temperature returns the calibrated average temperature of a city:
// the HotCities first cities are at or above 28 °C, all others
// below.
func Temperature(i int) float64 {
	if i < HotCities {
		return float64(HotTemperature + i%8)
	}
	return float64(5 + (i*7)%23)
}

// confDates returns the shared (start, end) pair of conference-city
// i. Same-city conferences share dates (co-located events), which
// keeps the optimal-cache call counts of Figure 11 exact. All dates
// fall inside the query window [2007/03/14, 2007/03/14+180].
func confDates(i int) (start, end schema.Value) {
	s := schema.D(2007, 3, 20)
	s.Num += float64((i * 3) % 170)
	e := s
	e.Num += 3
	return s, e
}

// DBConfCityOrder returns, in emission order, the conference-city
// index of each of the 71 'DB' tuples. The interleaving guarantees
// no two consecutive tuples share a city — neither in the full
// sequence nor in the subsequence of hot tuples — so the one-call
// cache finds nothing to collapse upstream of flight (Figure 11).
func DBConfCityOrder() []int {
	var order []int
	// First pass: every conference city once, hot and cold
	// interleaved: h0,c0,h1,c1,…,h10,c10,c11,…,c42.
	for i := 0; i < HotCities; i++ {
		order = append(order, i)           // hot city i
		order = append(order, HotCities+i) // cold city i
	}
	for i := HotCities; i < ConfCities-HotCities; i++ {
		order = append(order, HotCities+i)
	}
	// Second pass: the 17 duplicates — hot cities 0..4 and cold
	// cities 0..11 — again interleaved.
	for i := 0; i < 5; i++ {
		order = append(order, i)
		order = append(order, HotCities+i)
	}
	for i := 5; i < 12; i++ {
		order = append(order, HotCities+i)
	}
	return order
}

// FlightsPerHotCity returns the number of Milano flights to hot city
// i (0-based). Hot city 10 (Manila) has none — "for one city no
// flight is found" (§6). The counts are calibrated so the flight
// tuples flowing through the serial plan total 284: duplicated hot
// cities 0–4 contribute twice.
func FlightsPerHotCity(i int) int {
	switch {
	case i < 5:
		return 20 // counted twice: 200 tuples
	case i < 9:
		return 17 // 68 tuples
	case i == 9:
		return 16 // 16 tuples
	default:
		return 0 // hot city 10: no route
	}
}

// NewTravelWorld builds the four calibrated services and registers
// them (merge-scan for the flight/hotel pair, §3.3 registration-time
// choice).
func NewTravelWorld(opts TravelOptions) *TravelWorld {
	confSig, weatherSig, flightSig, hotelSig := TravelSignatures()

	w := &TravelWorld{Registry: service.NewRegistry()}
	w.Conf = tabsvc.MustNew(confSig, confRows(), opts.apply(ConfLatency))
	w.Weather = tabsvc.MustNew(weatherSig, weatherRows(), opts.apply(WeatherLatency))
	w.Flight = tabsvc.MustNew(flightSig, flightRows(), opts.apply(FlightLatency))
	w.Hotel = tabsvc.MustNew(hotelSig, hotelRows(), opts.apply(HotelLatency))

	w.Registry.MustRegister(w.Conf)
	w.Registry.MustRegister(w.Weather)
	w.Registry.MustRegister(w.Flight)
	w.Registry.MustRegister(w.Hotel)
	w.Registry.SetJoinMethod("flight", "hotel", plan.MergeScan)

	sch, err := w.Registry.Schema()
	if err != nil {
		panic(err)
	}
	w.Schema = sch
	return w
}

func confRows() [][]schema.Value {
	var rows [][]schema.Value
	n := 0
	for _, city := range DBConfCityOrder() {
		start, end := confDates(city)
		n++
		rows = append(rows, []schema.Value{
			schema.S("DB"),
			schema.S(fmt.Sprintf("Intl Conf on Databases %02d (%s)", n, CityName(city))),
			start, end,
			schema.S(CityName(city)),
		})
	}
	// Other topics: 29 conferences so that 100 conferences over 5
	// topics profile to an erspi of 20 (Table 1).
	other := []struct {
		topic string
		count int
	}{{"AI", 12}, {"SE", 9}, {"OS", 3}, {"NET", 5}}
	for _, o := range other {
		for j := 0; j < o.count; j++ {
			city := HotCities + (j*5+len(o.topic))%(ConfCities-HotCities)
			start, end := confDates(city)
			rows = append(rows, []schema.Value{
				schema.S(o.topic),
				schema.S(fmt.Sprintf("Intl Conf on %s %02d (%s)", o.topic, j+1, CityName(city))),
				start, end,
				schema.S(CityName(city)),
			})
		}
	}
	return rows
}

func weatherRows() [][]schema.Value {
	// One tuple per (city, conference start date): the average
	// temperature of the city on that date.
	dates := map[float64]schema.Value{}
	for i := 0; i < ConfCities; i++ {
		s, _ := confDates(i)
		dates[s.Num] = s
	}
	var rows [][]schema.Value
	for i := 0; i < TotalCities; i++ {
		for _, d := range sortedDates(dates) {
			rows = append(rows, []schema.Value{
				schema.S(CityName(i)),
				schema.N(Temperature(i)),
				d,
			})
		}
	}
	return rows
}

func sortedDates(m map[float64]schema.Value) []schema.Value {
	var keys []float64
	for k := range m {
		keys = append(keys, k)
	}
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			if keys[j] < keys[i] {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	out := make([]schema.Value, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

var departureTimes = []string{"06:40", "08:15", "10:05", "12:30", "14:45", "17:20", "19:10", "21:35"}

func flightRows() [][]schema.Value {
	var rows [][]schema.Value
	addRoute := func(cityIdx, count int) {
		start, end := confDates(cityIdx)
		for j := 0; j < count; j++ {
			rows = append(rows, []schema.Value{
				schema.S("Milano"),
				schema.S(CityName(cityIdx)),
				start, end,
				schema.S(departureTimes[j%len(departureTimes)]),
				schema.S(departureTimes[(j+3)%len(departureTimes)]),
				schema.N(float64(95 + 13*j)), // ranked by increasing price
			})
		}
	}
	for i := 0; i < HotCities; i++ {
		addRoute(i, FlightsPerHotCity(i))
	}
	// Cold-city routes: London is dense (exceeds one chunk, so
	// profiling detects the 25-tuple chunk size); 18 more cold
	// conference cities get 10 flights each.
	addRoute(HotCities+0, 60) // London
	for i := 1; i <= 18; i++ {
		addRoute(HotCities+i, 10)
	}
	return rows
}

var hotelCategories = []string{"standard", "budget", "hostel"}

func hotelRows() [][]schema.Value {
	var rows [][]schema.Value
	for i := 0; i < ConfCities; i++ {
		start, end := confDates(i)
		city := CityName(i)
		for j := 0; j < LuxuryPerCity; j++ {
			rows = append(rows, []schema.Value{
				schema.S(fmt.Sprintf("Grand Hotel %s %02d", city, j+1)),
				schema.S(city),
				schema.S("luxury"),
				start, end,
				schema.N(float64(180 + 17*j)), // ranked
			})
		}
		for _, cat := range hotelCategories {
			for j := 0; j < OtherPerCity; j++ {
				rows = append(rows, []schema.Value{
					schema.S(fmt.Sprintf("%s Inn %s %02d", cat, city, j+1)),
					schema.S(city),
					schema.S(cat),
					start, end,
					schema.N(float64(60 + 9*j)),
				})
			}
		}
	}
	return rows
}
