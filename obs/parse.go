package obs

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseText parses Prometheus text exposition format into a map from
// series (name plus label set, verbatim as written) to value. Comment
// and blank lines are skipped; malformed sample lines are errors. It is
// the consumer side of WritePrometheus — the benchmark reads its
// per-layer counters through it, and kcored's metrics drill uses it to
// assert a live endpoint is parseable.
func ParseText(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", lineNo, err)
		}
		out[key] = val
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseSample(line string) (string, float64, error) {
	sp := strings.IndexByte(line, ' ')
	br := strings.IndexByte(line, '{')
	end := -1 // last index of the series part
	if br >= 0 && (sp < 0 || br < sp) {
		// Labeled series: scan for the closing brace outside quotes
		// (label values may contain spaces, braces, escaped quotes).
		inQ, esc := false, false
	scan:
		for i := br + 1; i < len(line); i++ {
			switch c := line[i]; {
			case esc:
				esc = false
			case c == '\\' && inQ:
				esc = true
			case c == '"':
				inQ = !inQ
			case c == '}' && !inQ:
				end = i
				break scan
			}
		}
		if end < 0 {
			return "", 0, errors.New("unterminated label set")
		}
		if !validMetricName(line[:br]) {
			return "", 0, fmt.Errorf("invalid metric name %q", line[:br])
		}
	} else {
		if sp < 0 {
			return "", 0, errors.New("missing value")
		}
		end = sp - 1
		if !validMetricName(line[:sp]) {
			return "", 0, fmt.Errorf("invalid metric name %q", line[:sp])
		}
	}
	series := line[:end+1]
	rest := strings.TrimSpace(line[end+1:])
	if rest == "" {
		return "", 0, errors.New("missing value")
	}
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		rest = rest[:i] // drop optional timestamp
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return "", 0, fmt.Errorf("bad value %q", rest)
	}
	return series, v, nil
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
