package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
)

// specFile is the benchmark's declaration at the repository root: the
// workloads and every metric's name, unit and (end-to-end only) bound.
const specFile = "BENCHMARK.json"

type metricSpec struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

type benchSpec struct {
	EndToEnd  []metricSpec `json:"end_to_end"`
	PerLayer  []metricSpec `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, m := range append(append([]metricSpec{}, s.EndToEnd...), s.PerLayer...) {
		if !validName(m.Name) {
			return nil, fmt.Errorf("%s: invalid metric name %q", path, m.Name)
		}
	}
	return &s, nil
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether name may be emitted as a metric name.
func validName(name string) bool { return nameRE.MatchString(name) }

// slug turns a report section title into a metric-name fragment: the tag
// before the first colon ("Table III", "Fig 2", "Q1"), lower-cased, with
// every run of other characters folded to one underscore.
func slug(title string) string {
	tag, _, _ := strings.Cut(title, ":")
	var b strings.Builder
	gap := false
	for _, r := range strings.ToLower(tag) {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
			if gap && b.Len() > 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
			gap = false
		} else {
			gap = true
		}
	}
	s := b.String()
	if len(s) > 40 {
		s = s[:40]
	}
	if s == "" {
		s = "untitled"
	}
	return s
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// selectMetrics builds the metrics object from the measured values: exactly the
// declared metrics, with their declared units. A declared per-layer metric
// the workload does not exercise reads 0; a declared end-to-end metric that
// was not measured, or a measured value nobody declared, is an error, so
// the output and BENCHMARK.json cannot drift apart.
func selectMetrics(declared []metricSpec, values map[string]float64, missingIsZero bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(declared))
	for _, m := range declared {
		v, ok := values[m.Name]
		if !ok && !missingIsZero {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	var extra []string
	for name := range values {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("measured metrics missing from %s: %s", specFile, strings.Join(extra, ", "))
	}
	return out, nil
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs with the exclusive
// method of Python's statistics.quantiles(xs, n=4), the rule by which the
// benchmark's spread is judged. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
