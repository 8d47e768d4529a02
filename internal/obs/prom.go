package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed exposition line: a metric name, its label set,
// and the value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Label returns the value of label key ("" when absent).
func (s Sample) Label(key string) string { return s.Labels[key] }

// ParseProm parses Prometheus text exposition format into samples. It
// is strict about the subset WritePrometheus emits — `name{k="v",...}
// value` data lines with unique [a-zA-Z_][a-zA-Z0-9_]* label names,
// # HELP / # TYPE comments — and errors on anything else, so tests double
// as a format validity check and loadgen can recompute server-side
// quantiles from a /metrics scrape.
func ParseProm(r io.Reader) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
				return nil, fmt.Errorf("line %d: unknown comment %q", lineno, line)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineno, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.LastIndexByte(line, '}')
		if j < i {
			return s, fmt.Errorf("unbalanced braces in %q", line)
		}
		s.Name = line[:i]
		if err := parseLabels(line[i+1:j], s.Labels); err != nil {
			return s, err
		}
		rest = strings.TrimSpace(line[j+1:])
	} else {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return s, fmt.Errorf("want `name value`, got %q", line)
		}
		s.Name = fields[0]
		rest = fields[1]
	}
	if s.Name == "" || !validMetricName(s.Name) {
		return s, fmt.Errorf("bad metric name in %q", line)
	}
	v, err := parseValue(rest)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

func parseLabels(body string, into map[string]string) error {
	for body != "" {
		eq := strings.IndexByte(body, '=')
		if eq < 0 || len(body) < eq+2 || body[eq+1] != '"' {
			return fmt.Errorf("bad label pair near %q", body)
		}
		key := body[:eq]
		if !validLabelName(key) {
			return fmt.Errorf("bad label name %q", key)
		}
		if _, dup := into[key]; dup {
			return fmt.Errorf("duplicate label %q", key)
		}
		val, rest, err := unquotePrefix(body[eq+1:])
		if err != nil {
			return err
		}
		into[key] = val
		if rest != "" && rest[0] != ',' {
			return fmt.Errorf("missing comma before %q", rest)
		}
		body = strings.TrimPrefix(rest, ",")
	}
	return nil
}

// unquotePrefix consumes a leading Go/Prometheus quoted string and
// returns its value plus the remainder.
func unquotePrefix(s string) (val, rest string, err error) {
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			v, err := strconv.Unquote(s[:i+1])
			return v, s[i+1:], err
		}
	}
	return "", "", fmt.Errorf("unterminated quoted string in %q", s)
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return strconv.ParseFloat("+inf", 64)
	case "-Inf":
		return strconv.ParseFloat("-inf", 64)
	}
	return strconv.ParseFloat(s, 64)
}

// validLabelName reports whether name matches [a-zA-Z_][a-zA-Z0-9_]*:
// a metric name without colons.
func validLabelName(name string) bool {
	return name != "" && !strings.Contains(name, ":") && validMetricName(name)
}

func validMetricName(name string) bool {
	for i, r := range name {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// HistogramQuantile estimates quantile q from the _bucket samples of
// one histogram series in a scrape: pass every sample whose name is
// `<metric>_bucket` and whose non-le labels match the series wanted.
// loadgen reads a /metrics scrape's latency quantiles through it.
func HistogramQuantile(q float64, buckets []Sample) float64 {
	type edge struct {
		le  float64
		cum float64
	}
	var edges []edge
	for _, s := range buckets {
		le, err := parseValue(s.Label("le"))
		if err != nil {
			continue
		}
		edges = append(edges, edge{le: le, cum: s.Value})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].le < edges[j].le })
	var bounds []float64
	var counts []uint64
	var prev float64
	var total uint64
	for _, e := range edges {
		n := uint64(e.cum - prev)
		prev = e.cum
		if e.le > 1e308 { // +Inf bucket
			counts = append(counts, n)
		} else {
			bounds = append(bounds, e.le)
			counts = append(counts, n)
		}
		total += n
	}
	if len(counts) == len(bounds) { // no +Inf sample seen
		counts = append(counts, 0)
	}
	return bucketQuantile(q, bounds, counts, total)
}
