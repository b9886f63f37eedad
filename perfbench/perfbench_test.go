package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"omptune"
)

func loadTestSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", specFile))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func declaredSet(ms []metricSpec) map[string]bool {
	set := map[string]bool{}
	for _, m := range ms {
		set[m.Name] = true
	}
	return set
}

// smallCampaign is a quick dataset holding every application the report
// sections name.
func smallCampaign(t *testing.T) *omptune.Dataset {
	t.Helper()
	ds, err := omptune.Collect(omptune.CollectOptions{
		Arches:   []omptune.Arch{omptune.A64FX},
		Apps:     []string{"Alignment", "BT", "CG", "Health", "Nqueens", "RSBench", "XSbench"},
		Fraction: map[omptune.Arch]float64{omptune.A64FX: 0.02},
		Workers:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestDeclaredNamesValid(t *testing.T) {
	spec := loadTestSpec(t)
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
		if !validName(m.Name) {
			t.Errorf("declared metric %q is not a valid name", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric %q declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(wl, ",") != strings.Join(have, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark implements %v", wl, have)
	}
}

// TestReportSectionNames runs the report's section writer over a real
// report and checks that every section metric it emits is a valid, declared
// name, and that each section other than the hardware table maps to a
// layer.
func TestReportSectionNames(t *testing.T) {
	declared := declaredSet(loadTestSpec(t).PerLayer)
	tr := newTracer()
	w := newSectionWriter(tr)
	if err := omptune.WriteReport(w, smallCampaign(t)); err != nil {
		t.Fatal(err)
	}
	w.finish()
	vals := map[string]float64{}
	for name, s := range selfTimes(tr.spans) {
		vals[name+"_s"] = s
	}
	if len(vals) != 18 {
		t.Errorf("found %d report sections, want 18: %v", len(vals), sortedKeys(vals))
	}
	for name := range vals {
		if !validName(name) || !declared[name] {
			t.Errorf("section metric %q is invalid or not declared in %s", name, specFile)
		}
		s := strings.TrimSuffix(strings.TrimPrefix(name, sectionPrefix), "_s")
		if _, ok := sectionLayer[s]; !ok && s != "table_i" {
			t.Errorf("section %q maps to no layer", s)
		}
	}
	(&report{}).layers(tr, vals)
	if _, err := selectMetrics(loadTestSpec(t).PerLayer, vals, true); err != nil {
		t.Error(err)
	}
}

func TestAppMetricNames(t *testing.T) {
	declared := declaredSet(loadTestSpec(t).PerLayer)
	for _, a := range omptune.Applications() {
		name := "apps." + a.Name + ".median_ms"
		if !validName(name) || !declared[name] {
			t.Errorf("%q is invalid or not declared in %s", name, specFile)
		}
		if kernelRepeats[a.Name] < 1 {
			t.Errorf("%s has no kernel repeat count", a.Name)
		}
	}
}

func TestSlug(t *testing.T) {
	for title, want := range map[string]string{
		"Table III: Wilcoxon run-consistency (Alignment, small)": "table_iii",
		"Fig 2: influence per application":                       "fig_2",
		"Q1: upshot":                                             "q1",
		"  --Odd   tag--  ":                                      "odd_tag",
		"":                                                       "untitled",
		strings.Repeat("x", 80):                                  strings.Repeat("x", 40),
	} {
		got := slug(title)
		if got != want {
			t.Errorf("slug(%q) = %q, want %q", title, got, want)
		}
		if !validName(sectionPrefix + got + "_s") {
			t.Errorf("slug(%q) gives invalid metric name", title)
		}
	}
}

func TestSelectMetrics(t *testing.T) {
	declared := []metricSpec{{Name: "wall_s", Unit: "s"}, {Name: "alloc_mb", Unit: "MB"}}
	got, err := selectMetrics(declared, map[string]float64{"wall_s": 1.5}, true)
	if err != nil || got["alloc_mb"].Value != 0 || got["wall_s"] != (metricValue{1.5, "s"}) {
		t.Errorf("missing per-layer metric: got %v, %v", got, err)
	}
	if _, err := selectMetrics(declared, map[string]float64{"wall_s": 1.5}, false); err == nil {
		t.Error("a missing end-to-end metric was accepted")
	}
	if _, err := selectMetrics(declared, map[string]float64{"wall_s": 1, "alloc_mb": 2, "extra": 3}, false); err == nil {
		t.Error("an undeclared metric was accepted")
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "root", parent: -1, start: 0, end: ms(10)},
		{name: "a", parent: 0, start: ms(1), end: ms(3)},
		{name: "b", parent: 0, start: ms(2), end: ms(5)},  // overlaps a
		{name: "a", parent: 0, start: ms(8), end: ms(12)}, // runs past its parent
		{name: "leaf", parent: 2, start: ms(3), end: ms(4)},
	}
	got := selfTimes(spans)
	// root: 10 − |[1,5] ∪ [8,10]| = 10 − 6; a: 2 + 4; b: 3 − 1.
	want := map[string]float64{"root": 0.004, "a": 0.006, "b": 0.002, "leaf": 0.001}
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-12 {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root")
	tr.begin("child")
	grand := tr.begin("grandchild")
	tr.end(grand)
	tr.end(root) // closes the still-open child too
	if len(tr.open) != 0 {
		t.Fatalf("%d spans left open", len(tr.open))
	}
	if tr.spans[1].parent != 0 || tr.spans[2].parent != 1 {
		t.Errorf("parents = %d, %d, want 0, 1", tr.spans[1].parent, tr.spans[2].parent)
	}
	for _, s := range tr.spans {
		if s.end < s.start {
			t.Errorf("span %s ends before it starts", s.name)
		}
	}
	var untraced *tracer
	untraced.end(untraced.begin("x")) // the nil tracer is a no-op
}

func TestRoundTripOracle(t *testing.T) {
	ds := smallCampaign(t)
	var buf bytes.Buffer
	if err := omptune.WriteDatasetCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	written := buf.Bytes()
	back, err := omptune.ReadDatasetCSV(bytes.NewReader(written))
	if err != nil {
		t.Fatal(err)
	}
	if n, bad, tie, err := roundTrip(written, back); bad != 0 || tie != 0 || n != len(ds.Samples)+1 {
		t.Fatalf("clean round trip: %d of %d lines failed, %d last-digit: %v", bad, n, tie, err)
	}
	// Move the last digit of a 10-digit speedup: one unit apart is a
	// rounding tie, two units apart is a failure.
	last := lastSpeedupDigit(t, written)
	for step, want := range map[byte][2]int{1: {0, 1}, 2: {1, 0}} {
		moved := append([]byte(nil), written...)
		if d := moved[last] + step; d <= '9' {
			moved[last] = d
		} else {
			moved[last] -= step
		}
		if _, bad, tie, _ := roundTrip(moved, back); bad != want[0] || tie != want[1] {
			t.Errorf("speedup moved %d units: %d failed, %d last-digit; want %v", step, bad, tie, want)
		}
	}
	// Flip one digit of a runtime in the middle of the file: the flipped
	// file still parses, and its rewrite differs from the original.
	flipped := append([]byte(nil), written...)
	line := bytes.IndexByte(flipped[len(flipped)/2:], '\n') + len(flipped)/2 + 1
	field := line
	for c := 0; c < 13; c++ {
		field += bytes.IndexByte(flipped[field:], ',') + 1
	}
	flipped[field] = '0' + (flipped[field]-'0'+1)%10
	back, err = omptune.ReadDatasetCSV(bytes.NewReader(flipped))
	if err != nil {
		t.Fatalf("flipped CSV no longer parses: %v", err)
	}
	if _, bad, _, err := roundTrip(written, back); bad != 1 || err == nil {
		t.Errorf("one flipped byte: %d failed lines (%v), want 1", bad, err)
	}
	if n, bad, _, _ := roundTrip(written, nil); bad != n {
		t.Errorf("no dataset: %d of %d lines failed, want all", bad, n)
	}
}

// lastSpeedupDigit is the offset in csv of the last digit of the first
// speedup printed with 10 significant digits.
func lastSpeedupDigit(t *testing.T, csv []byte) int {
	t.Helper()
	off := bytes.IndexByte(csv, '\n') + 1
	for off < len(csv) {
		end := off + bytes.IndexByte(csv[off:], '\n')
		fields := bytes.Split(csv[off:end], []byte(","))
		f := fields[len(fields)-2] // speedup, before optimal
		if len(bytes.TrimLeft(bytes.ReplaceAll(f, []byte("."), nil), "0")) == 10 {
			return off + bytes.LastIndexByte(csv[off:end], ',') - 1
		}
		off = end + 1
	}
	t.Fatal("no speedup with 10 significant digits")
	return 0
}

func TestDigestOracle(t *testing.T) {
	want, err := os.ReadFile("report.sha256")
	if err != nil {
		t.Fatal(err)
	}
	if len(strings.TrimSpace(string(want))) != 2*sha256.Size {
		t.Fatalf("report.sha256 holds %q, want one hex SHA-256", want)
	}
	sum := sha256.Sum256([]byte("report"))
	if err := verifyDigest(sum, string(want)); err == nil {
		t.Error("a wrong digest was accepted")
	}
	w := newSectionWriter(nil)
	w.Write([]byte("report"))
	if err := verifyDigest(w.sum(), "  "+hex.EncodeToString(sum[:])+"\n"); err != nil {
		t.Errorf("the matching digest was rejected: %v", err)
	}
}

func TestChecksumOracle(t *testing.T) {
	for _, ref := range []float64{47152.52058851995, -0.17943274834889075, 0} {
		if !checksumOK(ref, ref) || !checksumOK(ref+1e-9*(1+math.Abs(ref)), ref) {
			t.Errorf("checksum equal to its reference %v (or within 1e-9) rejected", ref)
		}
		if checksumOK(ref+1e-5*(1+math.Abs(ref)), ref) || checksumOK(math.NaN(), ref) {
			t.Errorf("perturbed checksum of %v accepted", ref)
		}
	}
}

func TestFractionOracle(t *testing.T) {
	for frac, ok := range map[float64]bool{1: true, 0.95: true, minFractionOfBest: true, 0.89: false, 1.01: false, math.NaN(): false} {
		if got := verifyFraction(frac) == nil; got != ok {
			t.Errorf("verifyFraction(%v) accepted = %v, want %v", frac, got, ok)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0].
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
