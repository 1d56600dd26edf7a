package obs

import (
	"io"
	"sync"
)

// Registry holds registered metrics and renders them in Prometheus text
// exposition format v0.0.4. Families render in first-registration
// order; series of one family (same name, different labels) are grouped
// under a single HELP/TYPE header regardless of registration
// interleaving, as the format requires.
type Registry struct {
	mu     sync.Mutex
	order  []*famGroup
	byName map[string]*famGroup
}

type famGroup struct {
	fam     family
	metrics []Metric
	keys    map[string]bool
}

func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*famGroup)}
}

// MustRegister adds metrics to the registry. It panics if a family name
// is reused with a different type or help text, or if two series of one
// family carry the same label set — both are exposition-format
// violations better caught at startup than by the scraper.
func (r *Registry) MustRegister(ms ...Metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range ms {
		fam := m.familyOf()
		g := r.byName[fam.name]
		if g == nil {
			g = &famGroup{fam: fam, keys: make(map[string]bool)}
			r.byName[fam.name] = g
			r.order = append(r.order, g)
		} else if g.fam.typ != fam.typ || g.fam.help != fam.help {
			panic("obs: family " + fam.name + " re-registered with a different type or help")
		}
		for _, k := range m.seriesKeys() {
			if g.keys[k] {
				panic("obs: duplicate series " + fam.name + k)
			}
			g.keys[k] = true
		}
		g.metrics = append(g.metrics, m)
	}
}

// Metrics returns every registered metric, family by family in render
// order, so the same metric objects can be registered elsewhere too.
func (r *Registry) Metrics() []Metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ms []Metric
	for _, g := range r.order {
		ms = append(ms, g.metrics...)
	}
	return ms
}

// WritePrometheus renders every registered family to w. Callback
// metrics (FuncMetric, SeriesFunc) are sampled during the call.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := make([]byte, 0, 16<<10)
	for _, g := range r.order {
		b = append(b, "# HELP "...)
		b = append(b, g.fam.name...)
		b = append(b, ' ')
		b = appendEscapedHelp(b, g.fam.help)
		b = append(b, '\n')
		b = append(b, "# TYPE "...)
		b = append(b, g.fam.name...)
		b = append(b, ' ')
		b = append(b, g.fam.typ...)
		b = append(b, '\n')
		for _, m := range g.metrics {
			b = m.appendSamples(b)
		}
	}
	_, err := w.Write(b)
	return err
}

// appendEscapedHelp escapes help text per the text format: backslash
// and newline (quotes stay literal in help).
func appendEscapedHelp(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			b = append(b, '\\', '\\')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, c)
		}
	}
	return b
}
