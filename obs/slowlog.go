package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// SlowEntry is one recorded slow command.
type SlowEntry struct {
	ID     int64         // monotonically increasing, survives Reset
	Unix   int64         // wall-clock seconds when recorded
	Dur    time.Duration // measured duration
	Cmd    string        // command name
	Detail string        // free-form context (arg counts, edge counts)
}

// SlowLog is a fixed-size ring of the slowest commands, in the style of
// redis SLOWLOG. The hot-path gate is Eligible — one compare; Add itself
// takes a mutex but only runs for commands already past the threshold.
type SlowLog struct {
	threshold time.Duration // fixed at construction; negative disables the log entirely
	total     atomic.Int64  // entries ever recorded (survives Reset)

	mu   sync.Mutex
	ring []SlowEntry
	n    int   // live entries
	next int   // ring write index
	seq  int64 // next entry id
}

// NewSlowLog builds a slowlog ring. size <= 0 defaults to 128 entries;
// threshold < 0 disables recording (a threshold of 0 records every
// timed command).
func NewSlowLog(size int, threshold time.Duration) *SlowLog {
	if size <= 0 {
		size = 128
	}
	return &SlowLog{threshold: threshold, ring: make([]SlowEntry, size)}
}

// Eligible reports whether a command of duration d should be recorded.
func (l *SlowLog) Eligible(d time.Duration) bool {
	return l.threshold >= 0 && d >= l.threshold
}

// Add records one slow command.
func (l *SlowLog) Add(cmd, detail string, d time.Duration) {
	now := time.Now().Unix()
	l.total.Add(1)
	l.mu.Lock()
	l.ring[l.next] = SlowEntry{ID: l.seq, Unix: now, Dur: d, Cmd: cmd, Detail: detail}
	l.seq++
	l.next = (l.next + 1) % len(l.ring)
	if l.n < len(l.ring) {
		l.n++
	}
	l.mu.Unlock()
}

// Len returns the number of live entries.
func (l *SlowLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Total returns the number of entries ever recorded.
func (l *SlowLog) Total() int64 { return l.total.Load() }

// Reset drops all live entries. Entry ids keep increasing.
func (l *SlowLog) Reset() {
	l.mu.Lock()
	l.n, l.next = 0, 0
	l.mu.Unlock()
}

// Snapshot returns up to max entries, newest first (max <= 0 returns
// all live entries).
func (l *SlowLog) Snapshot(max int) []SlowEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.n
	if max > 0 && max < n {
		n = max
	}
	out := make([]SlowEntry, n)
	for i := 0; i < n; i++ {
		out[i] = l.ring[(l.next-1-i+len(l.ring)*2)%len(l.ring)]
	}
	return out
}
