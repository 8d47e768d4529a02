package obs

import (
	"regexp"
	"strings"
	"testing"
)

var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// FuzzParseProm: ParseProm never panics, and every sample it accepts has
// a valid metric name and unique, valid label names, as every sample
// WritePrometheus emits does. The seed corpus in testdata holds one
// registry exposition and label sets an earlier parser wrongly accepted.
func FuzzParseProm(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		samples, err := ParseProm(strings.NewReader(text))
		if err != nil {
			return
		}
		var lines []string
		for _, line := range strings.Split(text, "\n") {
			if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
				lines = append(lines, line)
			}
		}
		if len(lines) != len(samples) {
			t.Fatalf("%d data lines parsed into %d samples", len(lines), len(samples))
		}
		for i, s := range samples {
			if !metricNameRE.MatchString(s.Name) {
				t.Errorf("%q: accepted metric name %q", lines[i], s.Name)
			}
			for k := range s.Labels {
				if !labelNameRE.MatchString(k) {
					t.Errorf("%q: accepted label name %q", lines[i], k)
				}
			}
			if n := labelPairs(lines[i]); n != len(s.Labels) {
				t.Errorf("%q: %d label pairs parsed into %d labels", lines[i], n, len(s.Labels))
			}
		}
	})
}

// labelPairs counts the k="v" pairs of one sample line: the '=' signs
// inside its braces and outside any quoted value.
func labelPairs(line string) int {
	start := strings.IndexByte(line, '{')
	if start < 0 {
		return 0
	}
	n, quoted := 0, false
	for i := start + 1; i < len(line); i++ {
		switch c := line[i]; {
		case quoted && c == '\\':
			i++
		case c == '"':
			quoted = !quoted
		case !quoted && c == '=':
			n++
		case !quoted && c == '}':
			return n
		}
	}
	return n
}
