package main

import (
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/obs"
)

// TestMetricsEndpoint spawns a durable kcored with -metrics-addr and
// -slowlog-ms 0 and a follower of it, drives mixed traffic — pipelined
// writes and reads, aggregates, CORE.STATS — and scrapes /metrics before
// and after: every expected family, and every kcored_*/kcore_* family
// README's Observability tables name, is present in the leader's or the
// follower's scrape and parses, the traffic moved the command counters,
// and each histogram's +Inf bucket equals its _count. It then exercises
// CORE.SLOWLOG GET/LEN/RESET (threshold 0 records every timed command)
// and probes the pprof index on the same endpoint.
func TestMetricsEndpoint(t *testing.T) {
	skipShort(t)
	addr, maddr := freeAddr(t), freeAddr(t)
	url := "http://" + maddr + "/metrics"
	spawn(t, addr, append(durable(filepath.Join(t.TempDir(), "data")),
		"-metrics-addr", maddr, "-slowlog-ms", "0")...)
	// The follower makes the replica families and the leader's
	// per-follower series live.
	faddr, fmaddr := freeAddr(t), freeAddr(t)
	spawn(t, faddr, "-replica-of", addr, "-metrics-addr", fmaddr)
	fc := dial(t, faddr)
	for deadline := time.Now().Add(20 * time.Second); coreStats(t, fc)["kcored_replica_connected"] != 1; {
		if time.Now().After(deadline) {
			t.Fatal("the follower never connected")
		}
		time.Sleep(20 * time.Millisecond)
	}
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
	follower := scrape(t, "http://"+fmaddr+"/metrics")
	t.Logf("scraped %s: %d series; the follower: %d", url, len(after), len(follower))
	for _, fam := range []string{
		"kcored_commands_total",
		"kcored_command_latency_seconds_bucket",
		"kcored_command_latency_seconds_count",
		"kcored_pipeline_depth_bucket",
		"kcore_update_latency_seconds_bucket",
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
		"kcore_engine_rebuilds_total",
		"kcore_pipeline_stage_seconds_bucket",
		"kcored_aof_fsync_seconds_count",
		"kcored_aof_commit_wait_seconds_count",
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
	// The bursts above are a few dozen edges on a small graph, far below
	// the floor of an insertion batch's traversal budget.
	if v := after["kcore_engine_rebuilds_total"]; v != 0 {
		t.Errorf("kcore_engine_rebuilds_total = %g after small bursts, want 0", v)
	}
	for _, fam := range readmeFamilies(t) {
		if !hasFamily(after, fam) && !hasFamily(follower, fam) {
			t.Errorf("README names %s, but neither the leader nor the follower exports it", fam)
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
		`kcored_aof_commit_wait_seconds_count`,
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

// readmeFamilies lists the kcored_*/kcore_* families named in the tables
// of README's Observability section, so the docs cannot name a family
// the server does not export.
func readmeFamilies(t *testing.T) []string {
	t.Helper()
	b, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(b), "\n## Observability\n")
	if !ok {
		t.Fatal("README has no Observability section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	name := regexp.MustCompile("`(kcored?_[a-z0-9_]+)")
	var fams []string
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		for _, m := range name.FindAllStringSubmatch(line, -1) {
			fams = append(fams, m[1])
		}
	}
	if len(fams) < 40 {
		t.Fatalf("found only %d families in README's Observability tables: %v", len(fams), fams)
	}
	return fams
}

// hasFamily reports whether scr holds a series of family fam: the bare
// name, or a histogram's _count.
func hasFamily(scr map[string]float64, fam string) bool {
	for k := range scr {
		if base, _, _ := strings.Cut(k, "{"); base == fam || base == fam+"_count" {
			return true
		}
	}
	return false
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
