package dataset

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"omptune/internal/env"
	"omptune/internal/topology"
)

func mkSample(arch topology.Arch, app, setting string, speedupWant float64) *Sample {
	m := topology.MustGet(arch)
	s := &Sample{
		Arch: arch, App: app, Suite: "NPB", Setting: setting,
		Threads: m.Cores, Scale: 1.0,
		Config:         env.Default(m),
		DefaultRuntime: 1.0,
	}
	rt := 1.0 / speedupWant
	for i := range s.Runtimes {
		s.Runtimes[i] = rt
	}
	return s
}

func TestSampleDerivedQuantities(t *testing.T) {
	s := mkSample(topology.A64FX, "CG", "small", 2.0)
	if got := s.MeanRuntime(); got != 0.5 {
		t.Errorf("MeanRuntime = %v, want 0.5", got)
	}
	if got := s.Speedup(); math.Abs(got-2.0) > 1e-12 {
		t.Errorf("Speedup = %v, want 2", got)
	}
	if !s.Optimal() {
		t.Error("speedup 2 should be optimal")
	}
	slow := mkSample(topology.A64FX, "CG", "small", 1.005)
	if slow.Optimal() {
		t.Error("speedup 1.005 should be sub-optimal (threshold 1.01)")
	}
	if k := s.SettingKey(); k != "a64fx/CG/small" {
		t.Errorf("SettingKey = %q", k)
	}
}

func TestSpeedupZeroGuard(t *testing.T) {
	s := mkSample(topology.A64FX, "CG", "small", 1)
	s.DefaultRuntime = 0
	if s.Speedup() != 0 {
		t.Error("unenriched sample should report speedup 0")
	}
}

func TestMeanRuntimeAveragesDriftAway(t *testing.T) {
	// The §IV-C mitigation: averaging reps removes run drift from speedups.
	a := mkSample(topology.Milan, "CG", "small", 1.0)
	a.Runtimes = [4]float64{1.24, 1.0, 1.02, 1.01}
	b := mkSample(topology.Milan, "CG", "small", 1.0)
	b.Runtimes = [4]float64{1.24 * 0.9, 1.0 * 0.9, 1.02 * 0.9, 1.01 * 0.9}
	a.DefaultRuntime = a.MeanRuntime()
	b.DefaultRuntime = a.MeanRuntime()
	if sp := b.Speedup(); math.Abs(sp-1/0.9) > 1e-9 {
		t.Errorf("drift should cancel in speedup: %v, want %v", sp, 1/0.9)
	}
}

func TestFilters(t *testing.T) {
	ds := &Dataset{Samples: []*Sample{
		mkSample(topology.A64FX, "CG", "small", 1.2),
		mkSample(topology.A64FX, "MG", "small", 1.4),
		mkSample(topology.Milan, "CG", "large", 1.6),
	}}
	if got := ds.ByArch(topology.A64FX).Len(); got != 2 {
		t.Errorf("ByArch = %d, want 2", got)
	}
	if got := ds.ByApp("CG").Len(); got != 2 {
		t.Errorf("ByApp = %d, want 2", got)
	}
	if got := len(ds.Settings()); got != 3 {
		t.Errorf("Settings = %d, want 3", got)
	}
}

func TestBestPerSettingAndRange(t *testing.T) {
	ds := &Dataset{Samples: []*Sample{
		mkSample(topology.A64FX, "CG", "small", 1.2),
		mkSample(topology.A64FX, "CG", "small", 1.5),
		mkSample(topology.A64FX, "CG", "large", 1.1),
	}}
	best := ds.BestPerSetting()
	if len(best) != 2 {
		t.Fatalf("BestPerSetting has %d groups, want 2", len(best))
	}
	if sp := best["a64fx/CG/small"].Speedup(); math.Abs(sp-1.5) > 1e-9 {
		t.Errorf("best small speedup %v, want 1.5", sp)
	}
	lo, hi := ds.SpeedupRange()
	if math.Abs(lo-1.1) > 1e-9 || math.Abs(hi-1.5) > 1e-9 {
		t.Errorf("SpeedupRange = %v-%v, want 1.1-1.5", lo, hi)
	}
	if med := ds.MedianBestSpeedup(); math.Abs(med-1.3) > 1e-9 {
		t.Errorf("MedianBestSpeedup = %v, want 1.3", med)
	}
}

func TestEmptyDatasetRanges(t *testing.T) {
	ds := &Dataset{}
	lo, hi := ds.SpeedupRange()
	if lo != 0 || hi != 0 {
		t.Errorf("empty range = %v-%v", lo, hi)
	}
	if ds.MedianBestSpeedup() != 0 {
		t.Error("empty median should be 0")
	}
}

func TestRuntimeColumn(t *testing.T) {
	s := mkSample(topology.A64FX, "CG", "small", 1)
	s.Runtimes = [4]float64{1, 2, 3, 4}
	ds := &Dataset{Samples: []*Sample{s}}
	for rep := 0; rep < 4; rep++ {
		col := ds.RuntimeColumn(rep)
		if len(col) != 1 || col[0] != float64(rep+1) {
			t.Errorf("RuntimeColumn(%d) = %v", rep, col)
		}
	}
}

func TestValidate(t *testing.T) {
	good := &Dataset{Samples: []*Sample{mkSample(topology.A64FX, "CG", "small", 1.2)}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid dataset rejected: %v", err)
	}
	bad := mkSample(topology.A64FX, "CG", "small", 1.2)
	bad.Runtimes[2] = -1
	if err := (&Dataset{Samples: []*Sample{bad}}).Validate(); err == nil {
		t.Error("negative runtime accepted")
	}
	unenriched := mkSample(topology.A64FX, "CG", "small", 1.2)
	unenriched.DefaultRuntime = 0
	if err := (&Dataset{Samples: []*Sample{unenriched}}).Validate(); err == nil {
		t.Error("unenriched sample accepted")
	}
	badSetting := mkSample(topology.A64FX, "CG", "small", 1.2)
	badSetting.Threads = 0
	if err := (&Dataset{Samples: []*Sample{badSetting}}).Validate(); err == nil {
		t.Error("zero threads accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	m := topology.MustGet(topology.Milan)
	ds := &Dataset{}
	for i, cfg := range env.Space(m) {
		if i%500 != 0 {
			continue
		}
		s := &Sample{
			Arch: topology.Milan, App: "XSbench", Suite: "proxy", Setting: "t24",
			Threads: 24, Scale: 1.0, Config: cfg,
			Runtimes:       [4]float64{1.1, 1.2, 1.3, 1.4},
			DefaultRuntime: 1.25,
		}
		ds.Samples = append(ds.Samples, s)
	}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if back.Len() != ds.Len() {
		t.Fatalf("round trip lost samples: %d vs %d", back.Len(), ds.Len())
	}
	for i := range ds.Samples {
		a, b := ds.Samples[i], back.Samples[i]
		if a.Config != b.Config {
			t.Fatalf("sample %d config mismatch: %s vs %s", i, a.Config, b.Config)
		}
		if a.Runtimes != b.Runtimes || a.DefaultRuntime != b.DefaultRuntime {
			t.Fatalf("sample %d numeric mismatch", i)
		}
		if a.Arch != b.Arch || a.App != b.App || a.Setting != b.Setting || a.Threads != b.Threads {
			t.Fatalf("sample %d metadata mismatch", i)
		}
	}
}

func TestCSVHeaderAndFormat(t *testing.T) {
	ds := &Dataset{Samples: []*Sample{mkSample(topology.A64FX, "CG", "small", 1.5)}}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2", len(lines))
	}
	if !strings.HasPrefix(lines[0], "arch,app,suite,setting,threads,scale,omp_places") {
		t.Errorf("unexpected header %q", lines[0])
	}
	if !strings.Contains(lines[1], "a64fx,CG,NPB,small") {
		t.Errorf("unexpected row %q", lines[1])
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"not,a,header\n",
		"arch,app,suite,setting,threads,scale,omp_places,omp_proc_bind,omp_schedule,kmp_library,kmp_blocktime,kmp_force_reduction,kmp_align_alloc,runtime_0,runtime_1,runtime_2,runtime_3,default_runtime,speedup,optimal\n" +
			"vax,CG,NPB,small,48,1,unset,unset,static,throughput,200,unset,64,1,1,1,1,1,1,false\n",
		"arch,app,suite,setting,threads,scale,omp_places,omp_proc_bind,omp_schedule,kmp_library,kmp_blocktime,kmp_force_reduction,kmp_align_alloc,runtime_0,runtime_1,runtime_2,runtime_3,default_runtime,speedup,optimal\n" +
			"a64fx,CG,NPB,small,forty,1,unset,unset,static,throughput,200,unset,256,1,1,1,1,1,1,false\n",
		"arch,app,suite,setting,threads,scale,omp_places,omp_proc_bind,omp_schedule,kmp_library,kmp_blocktime,kmp_force_reduction,kmp_align_alloc,runtime_0,runtime_1,runtime_2,runtime_3,default_runtime,speedup,optimal\n" +
			"a64fx,CG,NPB,small,48,1,unset,unset,roundrobin,throughput,200,unset,256,1,1,1,1,1,1,false\n",
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestSpeedupRangePropertyBestIsMax(t *testing.T) {
	f := func(speeds [6]uint8) bool {
		ds := &Dataset{}
		maxSp := 0.0
		for _, raw := range speeds {
			sp := 1.0 + float64(raw)/255.0
			if sp > maxSp {
				maxSp = sp
			}
			ds.Samples = append(ds.Samples, mkSample(topology.A64FX, "CG", "small", sp))
		}
		_, hi := ds.SpeedupRange()
		return math.Abs(hi-maxSp) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMergeMethod(t *testing.T) {
	d := &Dataset{Samples: []*Sample{mkSample(topology.A64FX, "CG", "small", 1.2)}}
	b := &Dataset{Samples: []*Sample{mkSample(topology.Milan, "CG", "large", 1.4)}}
	if err := d.Merge(b, nil); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if d.Len() != 2 {
		t.Errorf("merged length = %d, want 2", d.Len())
	}
	// Overlap with the receiver's existing rows is rejected, and on error
	// the receiver is unchanged.
	dup := &Dataset{Samples: []*Sample{
		mkSample(topology.Skylake, "CG", "small", 1.1),
		mkSample(topology.A64FX, "CG", "small", 1.2),
	}}
	if err := d.Merge(dup); err == nil {
		t.Error("overlapping merge accepted")
	}
	if d.Len() != 2 {
		t.Errorf("failed merge mutated receiver: length = %d, want 2", d.Len())
	}
	// Overlap across the parts themselves is rejected too.
	p := &Dataset{Samples: []*Sample{mkSample(topology.Skylake, "MG", "small", 1.1)}}
	if err := (&Dataset{}).Merge(p, p); err == nil {
		t.Error("cross-part overlap accepted")
	}
}

func TestMerge(t *testing.T) {
	a := &Dataset{Samples: []*Sample{mkSample(topology.A64FX, "CG", "small", 1.2)}}
	b := &Dataset{Samples: []*Sample{mkSample(topology.Milan, "CG", "small", 1.4)}}
	merged, err := Merge(a, b, nil)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if merged.Len() != 2 {
		t.Errorf("merged %d samples, want 2", merged.Len())
	}
	if _, err := Merge(a, a); err == nil {
		t.Error("duplicate samples should be rejected")
	}
	empty, err := Merge()
	if err != nil || empty.Len() != 0 {
		t.Errorf("empty merge: %v, %d", err, empty.Len())
	}
}

func TestCSVSourceColumnRoundTrip(t *testing.T) {
	// A dataset with measured provenance writes the V2 header and round-trips
	// the source column.
	measured := mkSample(topology.A64FX, "CG", "small", 1.2)
	measured.Source = SourceMeasured
	model := mkSample(topology.A64FX, "CG", "large", 1.1)
	ds := &Dataset{Samples: []*Sample{measured, model}}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	head := strings.SplitN(buf.String(), "\n", 2)[0]
	if !strings.HasSuffix(head, ",optimal,source") {
		t.Fatalf("V2 header missing source column: %q", head)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if got := back.Samples[0].Source; got != SourceMeasured {
		t.Errorf("sample 0 source = %q, want %q", got, SourceMeasured)
	}
	if got := back.Samples[1].SourceName(); got != SourceModel {
		t.Errorf("sample 1 source = %q, want %q", got, SourceModel)
	}
}

func TestCSVModelDatasetKeepsLegacyHeader(t *testing.T) {
	// All-model datasets must stay byte-identical with pre-provenance files:
	// the V1 header, no trailing column — explicit "model" and empty Source
	// are equivalent.
	explicit := mkSample(topology.A64FX, "CG", "small", 1.5)
	explicit.Source = SourceModel
	ds := &Dataset{Samples: []*Sample{explicit, mkSample(topology.A64FX, "CG", "large", 1.1)}}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	head := strings.SplitN(buf.String(), "\n", 2)[0]
	if strings.Contains(head, "source") {
		t.Fatalf("model-only dataset wrote the source column: %q", head)
	}
}

func TestCSVLegacyFileReadsWithModelSource(t *testing.T) {
	// A V1 file (written before the Source column existed) reads back with
	// every sample defaulting to the model provenance.
	legacy := "arch,app,suite,setting,threads,scale,omp_places,omp_proc_bind,omp_schedule,kmp_library,kmp_blocktime,kmp_force_reduction,kmp_align_alloc,runtime_0,runtime_1,runtime_2,runtime_3,default_runtime,speedup,optimal\n" +
		"a64fx,CG,NPB,small,48,1,unset,unset,static,throughput,200,unset,256,1,1,1,1,1,1,false\n"
	ds, err := ReadCSV(strings.NewReader(legacy))
	if err != nil {
		t.Fatalf("ReadCSV(legacy): %v", err)
	}
	if ds.Len() != 1 || ds.Samples[0].SourceName() != SourceModel {
		t.Fatalf("legacy sample source = %q, want %q", ds.Samples[0].SourceName(), SourceModel)
	}
	if ds.Samples[0].Source != "" {
		t.Fatalf("legacy sample raw Source = %q, want empty", ds.Samples[0].Source)
	}
}

func TestCSVNestedConfigRoundTrip(t *testing.T) {
	// A dataset with nesting-axis configurations writes the V3 header and
	// round-trips the nested fields — without them, configurations differing
	// only in the nesting axis would collapse into duplicate rows.
	nested := mkSample(topology.Milan, "LUNest", "small", 1.3)
	nested.Config.NumThreadsList = "4,2"
	nested.Config.MaxActiveLevels = 2
	nested.Config.ThreadLimit = 16
	flat := mkSample(topology.Milan, "LUNest", "small", 1.1)
	ds := &Dataset{Samples: []*Sample{nested, flat}}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	head := strings.SplitN(buf.String(), "\n", 2)[0]
	if !strings.HasSuffix(head, ",source,omp_num_threads,omp_max_active_levels,omp_thread_limit") {
		t.Fatalf("V3 header missing nesting columns: %q", head)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if got := back.Samples[0].Config; got != nested.Config {
		t.Errorf("nested config round-trip = %+v, want %+v", got, nested.Config)
	}
	if got := back.Samples[1].Config; got != flat.Config {
		t.Errorf("flat config round-trip = %+v, want %+v", got, flat.Config)
	}
	if back.Samples[0].Config.Key() == back.Samples[1].Config.Key() {
		t.Error("nested and flat configs collapsed to the same key after round-trip")
	}
	// Byte-identical on a second pass, the property checkpoint resume needs.
	var buf2 bytes.Buffer
	if err := back.WriteCSV(&buf2); err != nil {
		t.Fatalf("WriteCSV(back): %v", err)
	}
	if buf2.String() == "" || !bytes.Equal(buf2.Bytes(), regenerate(t, ds)) {
		t.Error("nested CSV not byte-stable across write-read-write")
	}
}

// regenerate re-serializes ds for byte-comparison.
func regenerate(t *testing.T, ds *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	return buf.Bytes()
}

func TestCSVFlatDatasetOmitsNestedColumns(t *testing.T) {
	// Flat campaigns must stay byte-identical with pre-nesting files even
	// when measured (V2): the nesting columns appear only when used.
	measured := mkSample(topology.A64FX, "CG", "small", 1.2)
	measured.Source = SourceMeasured
	ds := &Dataset{Samples: []*Sample{measured}}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	head := strings.SplitN(buf.String(), "\n", 2)[0]
	if strings.Contains(head, "omp_num_threads") {
		t.Fatalf("flat dataset wrote nesting columns: %q", head)
	}
}

func TestCSVSourceColumnErrors(t *testing.T) {
	// An empty source cell in a V2 file is a corruption signal, not a default.
	bad := "arch,app,suite,setting,threads,scale,omp_places,omp_proc_bind,omp_schedule,kmp_library,kmp_blocktime,kmp_force_reduction,kmp_align_alloc,runtime_0,runtime_1,runtime_2,runtime_3,default_runtime,speedup,optimal,source\n" +
		"a64fx,CG,NPB,small,48,1,unset,unset,static,throughput,200,unset,256,1,1,1,1,1,1,false,\n"
	if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
		t.Error("empty source cell accepted")
	}
}

func TestCSVSeriesMetaRoundTrip(t *testing.T) {
	// A dataset carrying series provenance writes the V4 header and
	// round-trips the reps/cov/ci columns; samples without provenance keep
	// blank cells and read back with RepsRun == 0.
	adaptive := mkSample(topology.A64FX, "CG", "small", 1.2)
	adaptive.Source = SourceMeasured
	adaptive.RepsRun = 7
	adaptive.CoV = 0.0123
	adaptive.CIRel = 0.0345
	plain := mkSample(topology.A64FX, "CG", "large", 1.1)
	ds := &Dataset{Samples: []*Sample{adaptive, plain}}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	head := strings.SplitN(buf.String(), "\n", 2)[0]
	if !strings.HasSuffix(head, ",omp_thread_limit,reps,cov,ci") {
		t.Fatalf("V4 header missing provenance columns: %q", head)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	a := back.Samples[0]
	if a.RepsRun != 7 || a.CoV != 0.0123 || a.CIRel != 0.0345 {
		t.Errorf("meta round-trip = reps %d cov %v ci %v", a.RepsRun, a.CoV, a.CIRel)
	}
	if !a.HasSeriesMeta() {
		t.Error("adaptive sample lost its provenance")
	}
	p := back.Samples[1]
	if p.HasSeriesMeta() || p.RepsRun != 0 || p.CoV != 0 || p.CIRel != 0 {
		t.Errorf("plain sample gained provenance: %+v", p)
	}
	// Byte-stable across write-read-write, as checkpoint resume requires.
	var buf2 bytes.Buffer
	if err := back.WriteCSV(&buf2); err != nil {
		t.Fatalf("WriteCSV(back): %v", err)
	}
	if !bytes.Equal(buf2.Bytes(), regenerate(t, ds)) {
		t.Error("V4 CSV not byte-stable across write-read-write")
	}
}

func TestCSVMetaFreeDatasetOmitsMetaColumns(t *testing.T) {
	// Fixed-rep campaigns (no provenance) must keep their pre-V4 headers:
	// measured stays V2, nested stays V3.
	measured := mkSample(topology.A64FX, "CG", "small", 1.2)
	measured.Source = SourceMeasured
	ds := &Dataset{Samples: []*Sample{measured}}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	head := strings.SplitN(buf.String(), "\n", 2)[0]
	if strings.Contains(head, ",reps,") || strings.HasSuffix(head, ",ci") {
		t.Fatalf("meta-free dataset wrote provenance columns: %q", head)
	}
	if !strings.HasSuffix(head, ",source") {
		t.Fatalf("measured meta-free dataset lost its V2 header: %q", head)
	}
}

func TestCSVSeriesMetaLegacyFilesUnchanged(t *testing.T) {
	// Legacy V1 (20-col) and V2 ("source") files read back unchanged — no
	// provenance invented — and re-serialize byte-identically.
	legacyV1 := "arch,app,suite,setting,threads,scale,omp_places,omp_proc_bind,omp_schedule,kmp_library,kmp_blocktime,kmp_force_reduction,kmp_align_alloc,runtime_0,runtime_1,runtime_2,runtime_3,default_runtime,speedup,optimal\n" +
		"a64fx,CG,NPB,small,48,1,unset,unset,static,throughput,200,unset,256,1,1,1,1,1,1,false\n"
	legacyV2 := "arch,app,suite,setting,threads,scale,omp_places,omp_proc_bind,omp_schedule,kmp_library,kmp_blocktime,kmp_force_reduction,kmp_align_alloc,runtime_0,runtime_1,runtime_2,runtime_3,default_runtime,speedup,optimal,source\n" +
		"a64fx,CG,NPB,small,48,1,unset,unset,static,throughput,200,unset,256,1,1,1,1,1,1,false,measured\n"
	for name, legacy := range map[string]string{"v1": legacyV1, "v2": legacyV2} {
		ds, err := ReadCSV(strings.NewReader(legacy))
		if err != nil {
			t.Fatalf("%s: ReadCSV: %v", name, err)
		}
		if ds.Samples[0].HasSeriesMeta() {
			t.Fatalf("%s: legacy sample invented series provenance", name)
		}
		var buf bytes.Buffer
		if err := ds.WriteCSV(&buf); err != nil {
			t.Fatalf("%s: WriteCSV: %v", name, err)
		}
		if buf.String() != legacy {
			t.Fatalf("%s: legacy file not byte-identical after round-trip:\n got %q\nwant %q", name, buf.String(), legacy)
		}
	}
}

// TestCSVRewriteIsFixedPoint: a file written from full-precision runtimes
// reads back and rewrites byte for byte. The runtimes here are a rounding
// tie of the default campaign: they print as 6.4 and the default as
// 6.55125, so the stored speedup 6.55125/6.4 = 1.0236328125 sits on a
// 10th-digit tie (its float64 quotient prints …812), while the
// full-precision mean lies just below 6.4 and prints …813.
func TestCSVRewriteIsFixedPoint(t *testing.T) {
	s := mkSample(topology.A64FX, "CG", "small", 1)
	s.Runtimes = [4]float64{6.4 - 3e-12, 6.4 - 1e-12, 6.4 - 2e-12, 6.4 - 1e-12}
	s.DefaultRuntime = 6.55125
	ds := &Dataset{Samples: []*Sample{s}}
	var first bytes.Buffer
	if err := ds.WriteCSV(&first); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := ReadCSV(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	var second bytes.Buffer
	if err := back.WriteCSV(&second); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("rewrite differs:\n first: %s\nsecond: %s", first.String(), second.String())
	}
	if !strings.Contains(first.String(), ",6.4,6.4,6.4,6.4,6.55125,") {
		t.Errorf("runtimes not stored as the tie values:\n%s", first.String())
	}
}

// BenchmarkWriteCSV times the writer on 50k model-sourced samples with
// full-precision runtimes, the shape of a sweep's output.
func BenchmarkWriteCSV(b *testing.B) {
	m := topology.MustGet(topology.Milan)
	space := env.Space(m)
	ds := &Dataset{}
	for i := 0; i < 50000; i++ {
		s := &Sample{
			Arch: topology.Milan, App: "XSbench", Suite: "proxy", Setting: "t24",
			Threads: 24, Scale: 1.0, Config: space[i%len(space)],
			DefaultRuntime: 1.25 + float64(i%97)/1e3,
		}
		for r := range s.Runtimes {
			s.Runtimes[r] = 1 + math.Sqrt(float64(i*4+r))/1e3
		}
		ds.Samples = append(ds.Samples, s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ds.WriteCSV(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
