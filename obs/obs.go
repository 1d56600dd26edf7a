// Package obs provides dependency-free instrumentation primitives for
// the serving stack: monotonic counters, gauges, fixed-bucket latency
// histograms, and a registry that renders Prometheus text exposition
// format v0.0.4.
//
// The update paths are built for the server's zero-allocation command
// path: Counter.Add, Gauge.Set, and Histogram.Observe/ObserveN are
// single atomic adds (the histogram adds three) with no locks, no
// boxing, and no allocation. Everything slow — label rendering, bucket
// header strings, exposition output — is precomputed at construction
// or paid at scrape time.
//
// Histograms store raw int64 units (the serving stack uses
// nanoseconds) and apply a float64 scale only when rendering, so the
// hot path never touches floating point or a CAS loop.
package obs

import (
	"math"
	"strconv"
	"sync/atomic"
	"time"
)

// Label is one name="value" pair attached to a metric series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// family identifies a metric family; every series of the family shares
// the name, help text, and type, and the registry renders the HELP and
// TYPE header once per family.
type family struct {
	name string
	help string
	typ  string
}

// Metric is anything the registry can expose. Implementations append
// their sample lines to a scrape buffer; series with static labels also
// report canonical series keys so the registry can reject duplicates.
type Metric interface {
	familyOf() family
	seriesKeys() []string
	appendSamples(b []byte) []byte
}

// renderLabels pre-renders a label set as `{k="v",...}` with exposition
// escaping, or "" for an empty set.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	b := []byte{'{'}
	for i, l := range labels {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Key...)
		b = append(b, '=', '"')
		b = appendEscaped(b, l.Value)
		b = append(b, '"')
	}
	return string(append(b, '}'))
}

// appendEscaped escapes a label value per the text format: backslash,
// double quote, and newline.
func appendEscaped(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			b = append(b, '\\', '\\')
		case '"':
			b = append(b, '\\', '"')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, c)
		}
	}
	return b
}

func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// Counter is a monotonically increasing int64 counter.
type Counter struct {
	v      atomic.Int64
	fam    family
	labels string
}

// NewCounter builds a counter series. The name should end in _total.
func NewCounter(name, help string, labels ...Label) *Counter {
	return &Counter{fam: family{name, help, "counter"}, labels: renderLabels(labels)}
}

func (c *Counter) Inc()             { c.v.Add(1) }
func (c *Counter) Add(n int64)      { c.v.Add(n) }
func (c *Counter) Value() int64     { return c.v.Load() }
func (c *Counter) familyOf() family { return c.fam }
func (c *Counter) seriesKeys() []string {
	return []string{c.labels}
}

func (c *Counter) appendSamples(b []byte) []byte {
	b = append(b, c.fam.name...)
	b = append(b, c.labels...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, c.v.Load(), 10)
	return append(b, '\n')
}

// Gauge is an int64 value that can go up and down.
type Gauge struct {
	v      atomic.Int64
	fam    family
	labels string
}

func NewGauge(name, help string, labels ...Label) *Gauge {
	return &Gauge{fam: family{name, help, "gauge"}, labels: renderLabels(labels)}
}

func (g *Gauge) Set(v int64)      { g.v.Store(v) }
func (g *Gauge) Add(n int64)      { g.v.Add(n) }
func (g *Gauge) Value() int64     { return g.v.Load() }
func (g *Gauge) familyOf() family { return g.fam }
func (g *Gauge) seriesKeys() []string {
	return []string{g.labels}
}

func (g *Gauge) appendSamples(b []byte) []byte {
	b = append(b, g.fam.name...)
	b = append(b, g.labels...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, g.v.Load(), 10)
	return append(b, '\n')
}

// FuncMetric samples a float64 from a callback at scrape time. It wraps
// counters and gauges that already live elsewhere (a struct of atomics,
// a mutex-guarded stats snapshot) without duplicating their state.
type FuncMetric struct {
	fam    family
	labels string
	fn     func() float64
}

func NewCounterFunc(name, help string, fn func() float64, labels ...Label) *FuncMetric {
	return &FuncMetric{fam: family{name, help, "counter"}, labels: renderLabels(labels), fn: fn}
}

func NewGaugeFunc(name, help string, fn func() float64, labels ...Label) *FuncMetric {
	return &FuncMetric{fam: family{name, help, "gauge"}, labels: renderLabels(labels), fn: fn}
}

func (f *FuncMetric) familyOf() family { return f.fam }
func (f *FuncMetric) seriesKeys() []string {
	return []string{f.labels}
}

func (f *FuncMetric) appendSamples(b []byte) []byte {
	b = append(b, f.fam.name...)
	b = append(b, f.labels...)
	b = append(b, ' ')
	b = appendFloat(b, f.fn())
	return append(b, '\n')
}

// Sample is one dynamically labeled sample emitted by a SeriesFunc.
type Sample struct {
	Labels []Label
	Value  float64
}

// SeriesFunc emits a variable set of labeled samples at scrape time —
// for series whose label values only exist dynamically, like one gauge
// per connected replication follower.
type SeriesFunc struct {
	fam family
	fn  func() []Sample
}

func NewGaugeSeriesFunc(name, help string, fn func() []Sample) *SeriesFunc {
	return &SeriesFunc{fam: family{name, help, "gauge"}, fn: fn}
}

func NewCounterSeriesFunc(name, help string, fn func() []Sample) *SeriesFunc {
	return &SeriesFunc{fam: family{name, help, "counter"}, fn: fn}
}

func (s *SeriesFunc) familyOf() family     { return s.fam }
func (s *SeriesFunc) seriesKeys() []string { return nil }

func (s *SeriesFunc) appendSamples(b []byte) []byte {
	for _, sm := range s.fn() {
		b = append(b, s.fam.name...)
		b = append(b, renderLabels(sm.Labels)...)
		b = append(b, ' ')
		b = appendFloat(b, sm.Value)
		b = append(b, '\n')
	}
	return b
}

// Histogram is a fixed-bucket histogram over raw int64 units. Bounds
// are inclusive upper bounds in raw units; scale converts raw units to
// the exported unit at render time (1e-9 for nanoseconds → seconds).
// Observe is three atomic adds — no locks, no floats, no allocation.
type Histogram struct {
	count  atomic.Int64
	sum    atomic.Int64 // raw units
	counts []atomic.Int64
	fam    family
	labels string
	scale  float64
	bounds []int64

	// Pre-rendered exposition prefixes: "name_bucket{...,le=\"x\"} ",
	// "name_sum{...} ", "name_count{...} ".
	bucketHdr []string
	sumHdr    string
	countHdr  string
}

// NewHistogram builds a histogram with the given raw-unit bucket upper
// bounds (strictly ascending) and render-time scale. A final +Inf
// bucket is implicit.
func NewHistogram(name, help string, scale float64, bounds []int64, labels ...Label) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending: " + name)
		}
	}
	h := &Histogram{
		fam:    family{name, help, "histogram"},
		labels: renderLabels(labels),
		scale:  scale,
		bounds: append([]int64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	h.bucketHdr = make([]string, len(bounds)+1)
	for i := range h.bucketHdr {
		le := "+Inf"
		if i < len(bounds) {
			le = string(appendFloat(nil, float64(bounds[i])*scale))
		}
		h.bucketHdr[i] = name + "_bucket" + renderLabels(append(append([]Label(nil), labels...), L("le", le))) + " "
	}
	h.sumHdr = name + "_sum" + h.labels + " "
	h.countHdr = name + "_count" + h.labels + " "
	return h
}

// durationBounds returns the default latency bucket upper bounds in
// nanoseconds: 100ns to 10s, roughly geometric.
func durationBounds() []int64 {
	return []int64{
		100, 250, 500, // ns
		1_000, 2_500, 5_000, 10_000, 25_000, 50_000, // µs range
		100_000, 250_000, 500_000, // sub-ms
		1e6, 2.5e6, 5e6, 10e6, 25e6, 50e6, // ms range
		100e6, 250e6, 500e6, // sub-second
		1e9, 2.5e9, 5e9, 10e9, // seconds
	}
}

// NewDurationHistogram builds a histogram over nanoseconds, exported in
// seconds, with durationBounds buckets.
func NewDurationHistogram(name, help string, labels ...Label) *Histogram {
	return NewHistogram(name, help, 1e-9, durationBounds(), labels...)
}

// Observe records one observation of v raw units.
func (h *Histogram) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN records n observations of v raw units each — the weighted
// form the server uses to charge a pipelined burst's per-command mean
// to every command of the burst with one call.
func (h *Histogram) ObserveN(v, n int64) {
	if n <= 0 {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(n)
	h.count.Add(n)
	h.sum.Add(v * n)
}

// ObserveDuration records one duration observation (raw unit ns).
func (h *Histogram) ObserveDuration(d time.Duration) { h.ObserveN(int64(d), 1) }

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Quantile estimates the q-quantile (0..1) in exported units by linear
// interpolation within the owning bucket. Observations beyond the last
// bound clamp to it. Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	snap := make([]int64, len(h.counts))
	total := int64(0)
	for i := range h.counts {
		snap[i] = h.counts[i].Load()
		total += snap[i]
	}
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	if target > total {
		target = total
	}
	cum := int64(0)
	for i, c := range snap {
		cum += c
		if cum < target {
			continue
		}
		if i >= len(h.bounds) {
			break // +Inf bucket: clamp to the last finite bound
		}
		lo := float64(0)
		if i > 0 {
			lo = float64(h.bounds[i-1])
		}
		hi := float64(h.bounds[i])
		frac := float64(target-(cum-c)) / float64(c)
		return (lo + (hi-lo)*frac) * h.scale
	}
	return float64(h.bounds[len(h.bounds)-1]) * h.scale
}

func (h *Histogram) familyOf() family { return h.fam }
func (h *Histogram) seriesKeys() []string {
	return []string{h.labels}
}

func (h *Histogram) appendSamples(b []byte) []byte {
	// _count is rendered from the bucket sum, not the separate total, so
	// the +Inf bucket and _count always agree even mid-update.
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		b = append(b, h.bucketHdr[i]...)
		b = strconv.AppendInt(b, cum, 10)
		b = append(b, '\n')
	}
	b = append(b, h.sumHdr...)
	b = appendFloat(b, float64(h.sum.Load())*h.scale)
	b = append(b, '\n')
	b = append(b, h.countHdr...)
	b = strconv.AppendInt(b, cum, 10)
	return append(b, '\n')
}
