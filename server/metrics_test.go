package server

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/gen"
	"repro/kcore"
	"repro/obs"
)

// TestMetricsScrapeDuringChurn scrapes the full Prometheus registry in
// a tight loop while pipelined clients churn mixed reads and writes —
// on every registered engine. Each rendered exposition must parse
// (obs.ParseText) and carry the core metric families; under -race this
// is the data-race proof for the whole instrumentation stack: burst
// flushes, scrape-time gauge funcs, pipeline-stage histograms, and the
// registry walk all running concurrently.
func TestMetricsScrapeDuringChurn(t *testing.T) {
	const (
		n      = 800
		m      = 3000
		depth  = 32
		rounds = 40
	)
	for _, alg := range kcore.Algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			base := gen.ErdosRenyi(n, m, 11)
			pool := gen.SampleNonEdges(base, 256, 12)
			mnt := kcore.New(base, kcore.WithAlgorithm(alg), kcore.WithWorkers(2))
			t.Cleanup(mnt.Close)
			srv, addr := startServer(t, mnt, WithSlowlog(0, 32))

			reg := obs.NewRegistry()
			srv.RegisterMetrics(reg)

			var wg sync.WaitGroup
			stop := make(chan struct{})
			errc := make(chan error, 2)
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := client.Dial(addr, client.WithDialTimeout(5*time.Second))
				if err != nil {
					errc <- err
					return
				}
				defer c.Close()
				for r := 0; ; r++ {
					select {
					case <-stop:
						return
					default:
					}
					e := pool[r%len(pool)]
					c.Send("CORE.INSERT", e.U, e.V)
					c.Send("CORE.REMOVE", e.U, e.V)
					for i := 0; i < depth; i++ {
						c.Send("CORE.GET", int32(i*7%n))
					}
					if err := c.Flush(); err != nil {
						errc <- err
						return
					}
					for i := 0; i < depth+2; i++ {
						if _, err := c.Receive(); err != nil {
							errc <- err
							return
						}
					}
					if r%8 == 0 {
						if _, err := c.Do("CORE.HIST"); err != nil {
							errc <- err
							return
						}
					}
				}
			}()

			var buf bytes.Buffer
			var last map[string]float64
			for i := 0; i < rounds; i++ {
				buf.Reset()
				if err := reg.WritePrometheus(&buf); err != nil {
					t.Fatalf("scrape %d: %v", i, err)
				}
				series, err := obs.ParseText(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatalf("scrape %d did not parse: %v\n%s", i, err, buf.String())
				}
				last = series
			}
			close(stop)
			wg.Wait()
			select {
			case err := <-errc:
				t.Fatal(err)
			default:
			}

			for _, fam := range []string{
				`kcored_commands_total{family="read"}`,
				`kcored_connections_active`,
				`kcored_epoch`,
				`kcored_slowlog_entries`,
			} {
				if _, ok := last[fam]; !ok {
					t.Fatalf("series %s missing from scrape", fam)
				}
			}
			found := false
			for k := range last {
				if strings.HasPrefix(k, "kcore_pipeline_stage_seconds_count{") &&
					strings.Contains(k, `engine="`+alg.String()+`"`) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("no kcore_pipeline_stage_seconds series for engine %q", alg)
			}
		})
	}
}

// TestSlowlogCommand drives CORE.SLOWLOG end to end at threshold 0:
// every individually-timed command (aggregates, admin) lands in the
// ring, GET returns newest-first 5-field entries, RESET clears the ring
// but not the running total, and the subcommand grammar is enforced.
func TestSlowlogCommand(t *testing.T) {
	mnt := kcore.New(gen.ErdosRenyi(300, 1000, 3), kcore.WithWorkers(1))
	t.Cleanup(mnt.Close)
	_, addr := startServer(t, mnt, WithSlowlog(0, 8))
	c := dial(t, addr)

	for i := 0; i < 12; i++ { // overfill the size-8 ring
		if _, err := c.Do("CORE.HIST"); err != nil {
			t.Fatalf("CORE.HIST: %v", err)
		}
	}
	ln, err := client.Int(c.Do("CORE.SLOWLOG", "LEN"))
	if err != nil {
		t.Fatalf("SLOWLOG LEN: %v", err)
	}
	if ln != 8 {
		t.Fatalf("SLOWLOG LEN = %d after 12 slow commands into a size-8 ring, want 8", ln)
	}

	v, err := c.Do("CORE.SLOWLOG", "GET", 3)
	if err != nil {
		t.Fatalf("SLOWLOG GET 3: %v", err)
	}
	if len(v.Array) != 3 {
		t.Fatalf("SLOWLOG GET 3 returned %d entries", len(v.Array))
	}
	var prevID int64 = 1 << 62
	for _, e := range v.Array {
		if len(e.Array) != 5 {
			t.Fatalf("slowlog entry has %d fields, want 5", len(e.Array))
		}
		id := e.Array[0].Int
		if id >= prevID {
			t.Fatalf("slowlog not newest-first: id %d after %d", id, prevID)
		}
		prevID = id
		// CORE.SLOWLOG itself is exempt, so only the HISTs are in here.
		if cmd := string(e.Array[3].Str); cmd != "CORE.HIST" {
			t.Fatalf("slowlog entry cmd = %q, want CORE.HIST", cmd)
		}
	}

	// Default GET limit is 10, capped by ring occupancy.
	if v, err = c.Do("CORE.SLOWLOG", "GET"); err != nil || len(v.Array) != 8 {
		t.Fatalf("SLOWLOG GET = %d entries, %v; want 8", len(v.Array), err)
	}

	if s, err := client.String(c.Do("CORE.SLOWLOG", "RESET")); err != nil || s != "OK" {
		t.Fatalf("SLOWLOG RESET = %q, %v", s, err)
	}
	if ln, err = client.Int(c.Do("CORE.SLOWLOG", "LEN")); err != nil || ln != 0 {
		t.Fatalf("SLOWLOG LEN after RESET = %d, %v", ln, err)
	}

	if _, err := c.Do("CORE.SLOWLOG", "BOGUS"); err == nil ||
		!strings.Contains(err.Error(), "unknown CORE.SLOWLOG subcommand") {
		t.Fatalf("SLOWLOG BOGUS error = %v, want unknown-subcommand", err)
	}
}

// TestStatsObservabilityFields pins the CORE.STATS identity series
// (version, engine, uptime) plus the per-family command counters and
// latency histograms.
func TestStatsObservabilityFields(t *testing.T) {
	mnt := kcore.New(gen.ErdosRenyi(300, 1000, 5), kcore.WithWorkers(1))
	t.Cleanup(mnt.Close)
	_, addr := startServer(t, mnt)
	c := dial(t, addr)

	if _, err := c.Do("CORE.GET", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do("CORE.HIST"); err != nil {
		t.Fatal(err)
	}
	st := statsMap(t, c)
	for _, s := range [][2]string{
		{"kcored_info", `version="` + version + `"`},
		{"kcored_info", `engine="` + kcore.ParallelOrder.String() + `"`},
		{"kcored_uptime_seconds", ""},
		{"kcored_inflight_writes", ""},
		{"kcored_slowlog_entries", ""},
		{"kcored_slow_commands_total", ""},
		{"kcored_commands_total", `family="read"`},
		{"kcored_commands_total", `family="write"`},
		{"kcored_commands_total", `family="aggregate"`},
		{"kcored_commands_total", `family="admin"`},
		{"kcored_command_latency_seconds_bucket", `family="read"`},
		{"kcored_command_latency_seconds_bucket", `family="aggregate"`},
	} {
		if !hasSeries(st, s[0], s[1]) {
			t.Fatalf("CORE.STATS has no %s{%s} (got %d series)", s[0], s[1], len(st))
		}
	}
	if st[`kcored_commands_total{family="aggregate"}`] == 0 {
		t.Fatalf("no aggregate command counted after CORE.HIST")
	}
}
