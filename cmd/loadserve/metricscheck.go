package main

// The -metrics-check mode: an end-to-end observability drill (the
// `make metrics-check` target, and CI's integration step for the obs
// stack). loadserve spawns its own durable kcored with -metrics-addr
// and -slowlog-ms 0, drives a short burst of mixed traffic — pipelined
// reads, coalesced writes, aggregates, CORE.STATS — then scrapes
// /metrics twice, asserts the exposition parses (obs.ParseText), that
// every expected metric family is present, that the traffic moved the
// command counters, and that each latency histogram's +Inf bucket
// equals its _count. It finishes by exercising CORE.SLOWLOG
// GET/LEN/RESET (threshold 0 records every timed command) and probing
// the pprof index.

import (
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/client"
)

type metricsCheckConfig struct {
	kcored   string
	duration time.Duration
	batch    int
	seed     int64
}

func metricsCheckRun(cfg metricsCheckConfig) {
	if cfg.kcored == "" {
		log.Fatalf("loadserve: -metrics-check needs -kcored <path-to-binary> (build with: go build -o kcored ./cmd/kcored)")
	}
	tmp, err := os.MkdirTemp("", "loadserve-metrics-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)

	addr := fmt.Sprintf("127.0.0.1:%d", mustFreePort())
	maddr := fmt.Sprintf("127.0.0.1:%d", mustFreePort())
	url := "http://" + maddr + "/metrics"
	proc := spawnKcored(cfg.kcored, filepath.Join(tmp, "data"), addr,
		"-metrics-addr", maddr, "-slowlog-ms", "0")
	defer func() {
		proc.Process.Kill()
		proc.Wait()
	}()

	before := scrapeMetrics(url)

	// Mixed churn: pipelined writes (insert then remove, so the graph
	// stays bounded), point reads, aggregates, and admin traffic.
	c, err := client.Dial(addr, client.WithDialTimeout(5*time.Second))
	if err != nil {
		log.Fatalf("loadserve: connect: %v", err)
	}
	defer c.Close()
	const n = 2000
	rng := rand.New(rand.NewSource(cfg.seed))
	batch := max(cfg.batch, 16)
	deadline := time.Now().Add(cfg.duration)
	bursts := 0
	for time.Now().Before(deadline) || bursts < 8 {
		for _, cmd := range []string{"CORE.INSERT", "CORE.REMOVE"} {
			rng2 := rand.New(rand.NewSource(cfg.seed + int64(bursts)))
			for i := 0; i < batch; i++ {
				u, v := rng2.Int31n(n), rng2.Int31n(n)
				if u == v {
					v = (v + 1) % n
				}
				if err := c.Send(cmd, u, v); err != nil {
					log.Fatalf("loadserve: send: %v", err)
				}
			}
			for i := 0; i < batch; i++ {
				if err := c.Send("CORE.GET", rng.Int31n(n)); err != nil {
					log.Fatalf("loadserve: send: %v", err)
				}
			}
			if err := c.Flush(); err != nil {
				log.Fatalf("loadserve: flush: %v", err)
			}
			for i := 0; i < 2*batch; i++ {
				if _, err := c.Receive(); err != nil {
					log.Fatalf("loadserve: receive: %v", err)
				}
			}
		}
		if _, err := c.Do("CORE.HIST"); err != nil {
			log.Fatalf("loadserve: CORE.HIST: %v", err)
		}
		if _, err := c.Do("CORE.STATS"); err != nil {
			log.Fatalf("loadserve: CORE.STATS: %v", err)
		}
		bursts++
	}
	fmt.Printf("churned %d bursts (batch=%d) against %s\n", bursts, batch, addr)

	after := scrapeMetrics(url)
	fmt.Printf("scraped %s: %d series parsed\n", url, len(after))

	// Family presence: at least one series of each expected family.
	families := []string{
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
	}
	for _, fam := range families {
		found := false
		for k := range after {
			if k == fam || strings.HasPrefix(k, fam+"{") {
				found = true
				break
			}
		}
		if !found {
			log.Fatalf("loadserve: metric family %q missing from %s", fam, url)
		}
	}
	fmt.Printf("all %d expected metric families present\n", len(families))

	// The churn must have moved the command counters and histograms.
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
			log.Fatalf("loadserve: %s did not advance over the run (%g -> %g)",
				series, before[series], after[series])
		}
	}

	// Histogram self-consistency: each family's +Inf bucket == _count.
	hists := 0
	for k, v := range after {
		if i := strings.Index(k, `le="+Inf"`); i >= 0 {
			count := strings.Replace(strings.Replace(k, "_bucket{", "_count{", 1), `le="+Inf"`, "", 1)
			count = strings.Replace(count, `,}`, `}`, 1)
			count = strings.Replace(count, `{}`, ``, 1)
			cv, ok := after[count]
			if !ok {
				log.Fatalf("loadserve: %s has no matching _count series (looked for %s)", k, count)
			}
			if v != cv {
				log.Fatalf("loadserve: %s = %g but %s = %g", k, v, count, cv)
			}
			hists++
		}
	}
	fmt.Printf("%d histogram series: +Inf bucket == _count\n", hists)

	// Slowlog: threshold 0 records every timed command and write drain.
	slen, err := client.Int(c.Do("CORE.SLOWLOG", "LEN"))
	if err != nil {
		log.Fatalf("loadserve: CORE.SLOWLOG LEN: %v", err)
	}
	if slen == 0 {
		log.Fatalf("loadserve: slowlog empty after churn at threshold 0")
	}
	got, err := c.Do("CORE.SLOWLOG", "GET", 5)
	if err != nil {
		log.Fatalf("loadserve: CORE.SLOWLOG GET: %v", err)
	}
	if len(got.Array) == 0 {
		log.Fatalf("loadserve: CORE.SLOWLOG GET returned no entries (LEN=%d)", slen)
	}
	if e := got.Array[0]; len(e.Array) != 5 {
		log.Fatalf("loadserve: slowlog entry has %d fields, want 5 (id, unix, duration_us, cmd, detail)", len(e.Array))
	}
	if s, err := client.String(c.Do("CORE.SLOWLOG", "RESET")); err != nil || s != "OK" {
		log.Fatalf("loadserve: CORE.SLOWLOG RESET = %q, %v", s, err)
	}
	if slen, err = client.Int(c.Do("CORE.SLOWLOG", "LEN")); err != nil || slen != 0 {
		log.Fatalf("loadserve: CORE.SLOWLOG LEN after RESET = %d, %v", slen, err)
	}
	fmt.Printf("slowlog: recorded, listed, reset ok\n")

	// The pprof mux rides on the same endpoint.
	resp, err := http.Get("http://" + maddr + "/debug/pprof/")
	if err != nil || resp.StatusCode != http.StatusOK {
		log.Fatalf("loadserve: pprof index: status=%v err=%v", respStatus(resp), err)
	}
	resp.Body.Close()
	fmt.Println("metrics-check: PASS")
}

func respStatus(r *http.Response) string {
	if r == nil {
		return "<nil>"
	}
	return r.Status
}
