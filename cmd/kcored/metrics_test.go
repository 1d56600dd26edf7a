package main

import (
	"math/rand"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"repro/client"
	"repro/obs"
)

// TestMetricsEndpoint spawns a durable kcored with -metrics-addr and
// -slowlog-ms 0, drives mixed traffic — pipelined writes and reads,
// aggregates, CORE.STATS — and scrapes /metrics before and after: every
// expected family is present and parses, the traffic moved the command
// counters, and each histogram's +Inf bucket equals its _count. It then
// exercises CORE.SLOWLOG GET/LEN/RESET (threshold 0 records every timed
// command) and probes the pprof index on the same endpoint.
func TestMetricsEndpoint(t *testing.T) {
	skipShort(t)
	addr, maddr := freeAddr(t), freeAddr(t)
	url := "http://" + maddr + "/metrics"
	spawn(t, addr, append(durable(filepath.Join(t.TempDir(), "data")),
		"-metrics-addr", maddr, "-slowlog-ms", "0")...)
	before := scrape(t, url)

	// Each burst inserts a batch of edges and removes them again, so the
	// graph stays bounded, with a pipelined read beside every write.
	const (
		n      = 2000
		bursts = 8
		batch  = 64
		seed   = 1
	)
	c := dial(t, addr)
	rng := rand.New(rand.NewSource(seed))
	for b := 0; b < bursts; b++ {
		for _, cmd := range []string{"CORE.INSERT", "CORE.REMOVE"} {
			edges := rand.New(rand.NewSource(seed + int64(b)))
			for i := 0; i < batch; i++ {
				u, v := edges.Int31n(n), edges.Int31n(n)
				if u == v {
					v = (v + 1) % n
				}
				if err := c.Send(cmd, u, v); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < batch; i++ {
				if err := c.Send("CORE.GET", rng.Int31n(n)); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2*batch; i++ {
				if _, err := c.Receive(); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, cmd := range []string{"CORE.HIST", "CORE.STATS"} {
			if _, err := c.Do(cmd); err != nil {
				t.Fatalf("%s: %v", cmd, err)
			}
		}
	}

	after := scrape(t, url)
	t.Logf("scraped %s: %d series", url, len(after))
	for _, fam := range []string{
		"kcored_commands_total",
		"kcored_command_latency_seconds_bucket",
		"kcored_command_latency_seconds_count",
		"kcored_connections_total",
		"kcored_errors_total",
		"kcored_inflight_writes",
		"kcored_uptime_seconds",
		"kcored_info",
		"kcored_epoch",
		"kcored_vertices",
		"kcored_queue_depth",
		"kcored_pipeline_ops_total",
		"kcored_batches_total",
		"kcored_publishes_total",
		"kcore_pipeline_stage_seconds_bucket",
		"kcored_aof_fsync_seconds_count",
		"kcored_aof_records_total",
		"kcored_checkpoints_total",
		"kcored_checkpoint_pause_seconds_count",
		"kcored_persist_err",
		"kcored_slow_commands_total",
		"kcored_slowlog_entries",
	} {
		found := false
		for k := range after {
			if k == fam || strings.HasPrefix(k, fam+"{") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("metric family %q missing from %s", fam, url)
		}
	}

	for _, series := range []string{
		`kcored_commands_total{family="read"}`,
		`kcored_commands_total{family="write"}`,
		`kcored_commands_total{family="aggregate"}`,
		`kcored_commands_total{family="admin"}`,
		`kcored_command_latency_seconds_count{family="read"}`,
		`kcored_command_latency_seconds_count{family="write"}`,
		`kcored_aof_records_total`,
	} {
		if after[series] <= before[series] {
			t.Errorf("%s did not advance over the run (%g -> %g)", series, before[series], after[series])
		}
	}

	hists := 0
	for k, v := range after {
		if !strings.Contains(k, `le="+Inf"`) {
			continue
		}
		count := strings.Replace(strings.Replace(k, "_bucket{", "_count{", 1), `le="+Inf"`, "", 1)
		count = strings.Replace(count, `,}`, `}`, 1)
		count = strings.Replace(count, `{}`, ``, 1)
		if cv, ok := after[count]; !ok {
			t.Errorf("%s has no matching _count series (looked for %s)", k, count)
		} else if v != cv {
			t.Errorf("%s = %g but %s = %g", k, v, count, cv)
		}
		hists++
	}
	t.Logf("%d histogram series: +Inf bucket == _count", hists)

	slen, err := client.Int(c.Do("CORE.SLOWLOG", "LEN"))
	if err != nil {
		t.Fatalf("CORE.SLOWLOG LEN: %v", err)
	}
	if slen == 0 {
		t.Fatal("slowlog empty after churn at threshold 0")
	}
	got, err := c.Do("CORE.SLOWLOG", "GET", 5)
	if err != nil {
		t.Fatalf("CORE.SLOWLOG GET: %v", err)
	}
	if len(got.Array) == 0 {
		t.Fatalf("CORE.SLOWLOG GET returned no entries (LEN=%d)", slen)
	}
	if e := got.Array[0]; len(e.Array) != 5 {
		t.Fatalf("slowlog entry has %d fields, want 5 (id, unix, duration_us, cmd, detail)", len(e.Array))
	}
	if s, err := client.String(c.Do("CORE.SLOWLOG", "RESET")); err != nil || s != "OK" {
		t.Fatalf("CORE.SLOWLOG RESET = %q, %v", s, err)
	}
	if slen, err = client.Int(c.Do("CORE.SLOWLOG", "LEN")); err != nil || slen != 0 {
		t.Fatalf("CORE.SLOWLOG LEN after RESET = %d, %v", slen, err)
	}

	resp, err := http.Get("http://" + maddr + "/debug/pprof/")
	if err != nil {
		t.Fatalf("pprof index: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: %s", resp.Status)
	}
}

// scrape fetches url and parses its Prometheus text exposition.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	defer resp.Body.Close()
	m, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	return m
}
