package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"omptune/internal/env"
	"omptune/internal/sim"
	"omptune/internal/topology"
)

// The tabular format is versioned by its header. headerV1 is the original
// column order of the open-sourced files; headerV2 appends the "source"
// provenance column recording which measurement backend produced each row.
// WriteCSV emits the V1 header whenever every sample is model-sourced, so
// model-backend campaigns stay byte-identical with files written before the
// column existed; ReadCSV accepts both, defaulting absent provenance to
// "model".
var headerV1 = []string{
	"arch", "app", "suite", "setting", "threads", "scale",
	"omp_places", "omp_proc_bind", "omp_schedule",
	"kmp_library", "kmp_blocktime", "kmp_force_reduction", "kmp_align_alloc",
	"runtime_0", "runtime_1", "runtime_2", "runtime_3",
	"default_runtime", "speedup", "optimal",
}

var headerV2 = append(append([]string{}, headerV1...), "source")

// headerV3 appends the nesting-axis configuration columns. Like the source
// column, they are emitted only when a sample actually carries a nested
// configuration, so flat campaigns stay byte-identical with earlier files.
var headerV3 = append(append([]string{}, headerV2...),
	"omp_num_threads", "omp_max_active_levels", "omp_thread_limit")

// headerV4 appends the variability-observatory provenance columns: the real
// repetition count behind the (possibly cycled) runtime slots, the series'
// final coefficient of variation, and the relative 95% confidence-interval
// half-width. They are emitted only when a sample carries series provenance
// (RepsRun > 0), keeping the single linear version order — a V4 file always
// has the source and nesting columns too, blank where unset.
var headerV4 = append(append([]string{}, headerV3...), "reps", "cov", "ci")

// hasNonModelSource reports whether any sample needs the provenance column.
func (d *Dataset) hasNonModelSource() bool {
	for _, s := range d.Samples {
		if s.SourceName() != SourceModel {
			return true
		}
	}
	return false
}

// hasSeriesMeta reports whether any sample needs the reps/cov/ci provenance
// columns.
func (d *Dataset) hasSeriesMeta() bool {
	for _, s := range d.Samples {
		if s.HasSeriesMeta() {
			return true
		}
	}
	return false
}

// hasNestedConfig reports whether any sample needs the nesting columns —
// dropping them would collapse configurations that differ only in the
// nesting axis into indistinguishable rows.
func (d *Dataset) hasNestedConfig() bool {
	for _, s := range d.Samples {
		c := s.Config
		if c.NumThreadsList != "" || c.MaxActiveLevels != 0 || c.ThreadLimit != 0 {
			return true
		}
	}
	return false
}

// WriteCSV streams the dataset in the study's tabular format. Datasets whose
// samples all come from the model backend use the legacy V1 header
// (byte-identical with pre-provenance files); any measured sample switches
// the file to the V2 header with the trailing "source" column, any nested
// configuration to the V3 header with the nesting columns, and any sample
// with series provenance to the V4 header with the reps/cov/ci columns
// (each version includes every earlier column — a single linear version
// order keeps reading simple).
func (d *Dataset) WriteCSV(w io.Writer) error {
	header := headerV1
	withSource := d.hasNonModelSource()
	withNested := d.hasNestedConfig()
	withMeta := d.hasSeriesMeta()
	if withSource {
		header = headerV2
	}
	if withNested {
		header = headerV3
		withSource = true
	}
	if withMeta {
		header = headerV4
		withSource, withNested = true, true
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	// scale and default_runtime repeat on every row of a setting, so each
	// keeps its last printed value instead of formatting it again.
	var scale, def lastPrinted
	var stored Sample // a sample's runtimes as printed in row[13:18]
	for _, s := range d.Samples {
		row[0] = string(s.Arch)
		row[1] = s.App
		row[2] = s.Suite
		row[3] = s.Setting
		row[4] = strconv.Itoa(s.Threads)
		row[5] = scale.print(s.Scale)
		row[6] = s.Config.Value(env.VarPlaces)
		row[7] = s.Config.Value(env.VarProcBind)
		row[8] = s.Config.Value(env.VarSchedule)
		row[9] = s.Config.Value(env.VarLibrary)
		row[10] = s.Config.Value(env.VarBlocktime)
		row[11] = s.Config.Value(env.VarForceReduction)
		row[12] = s.Config.Value(env.VarAlignAlloc)
		for r := 0; r < sim.Reps; r++ {
			row[13+r] = fmt1(s.Runtimes[r])
		}
		row[17] = def.print(s.DefaultRuntime)
		// speedup and optimal are derived from the runtimes as stored, not
		// at full precision, so that ReadCSV, which can only recompute them
		// from the stored digits, rewrites the file byte for byte: at a
		// rounding tie the two would print different last digits.
		for r := 0; r < sim.Reps; r++ {
			stored.Runtimes[r], _ = strconv.ParseFloat(row[13+r], 64)
		}
		stored.DefaultRuntime = def.stored
		row[18] = fmt1(stored.Speedup())
		row[19] = strconv.FormatBool(stored.Optimal())
		if withSource {
			row[20] = s.SourceName()
		}
		if withNested {
			row[21] = s.Config.NumThreadsList
			row[22] = itoaOrEmpty(s.Config.MaxActiveLevels)
			row[23] = itoaOrEmpty(s.Config.ThreadLimit)
		}
		if withMeta {
			// Samples without provenance (e.g. model rows merged into a
			// measured campaign) leave all three columns blank.
			if s.HasSeriesMeta() {
				row[24] = strconv.Itoa(s.RepsRun)
				row[25] = fmt1(s.CoV)
				row[26] = fmt1(s.CIRel)
			} else {
				row[24], row[25], row[26] = "", "", ""
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a dataset previously written by WriteCSV, accepting both
// header versions. Files without the "source" column — every CSV produced
// before the provenance column existed — read back with Source defaulting
// to "model".
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("dataset: empty file")
	}
	withSource, withNested, withMeta := false, false, false
	switch {
	case len(rows[0]) == len(headerV1) && rows[0][0] == "arch":
	case len(rows[0]) == len(headerV2) && rows[0][0] == "arch" && rows[0][len(headerV2)-1] == "source":
		withSource = true
	case len(rows[0]) == len(headerV3) && rows[0][0] == "arch" && rows[0][len(headerV3)-1] == "omp_thread_limit":
		withSource, withNested = true, true
	case len(rows[0]) == len(headerV4) && rows[0][0] == "arch" && rows[0][len(headerV4)-1] == "ci":
		withSource, withNested, withMeta = true, true, true
	default:
		return nil, fmt.Errorf("dataset: unrecognized header %v", rows[0])
	}
	d := &Dataset{}
	for ln, row := range rows[1:] {
		s := &Sample{
			Arch:    topology.Arch(row[0]),
			App:     row[1],
			Suite:   row[2],
			Setting: row[3],
		}
		m, err := topology.Get(s.Arch)
		if err != nil {
			return nil, fmt.Errorf("dataset: row %d: %w", ln+2, err)
		}
		if s.Threads, err = strconv.Atoi(row[4]); err != nil {
			return nil, fmt.Errorf("dataset: row %d threads: %w", ln+2, err)
		}
		if s.Scale, err = strconv.ParseFloat(row[5], 64); err != nil {
			return nil, fmt.Errorf("dataset: row %d scale: %w", ln+2, err)
		}
		environ := []string{
			"OMP_SCHEDULE=" + row[8],
			"KMP_LIBRARY=" + row[9],
			"KMP_BLOCKTIME=" + row[10],
			"KMP_ALIGN_ALLOC=" + row[12],
		}
		if row[6] != string(topology.PlaceUnset) {
			environ = append(environ, "OMP_PLACES="+row[6])
		}
		if row[7] != string(env.BindUnset) {
			environ = append(environ, "OMP_PROC_BIND="+row[7])
		}
		if row[11] != string(env.ReductionUnset) {
			environ = append(environ, "KMP_FORCE_REDUCTION="+row[11])
		}
		if withNested {
			if row[21] != "" {
				environ = append(environ, "OMP_NUM_THREADS="+row[21])
			}
			if row[22] != "" {
				environ = append(environ, "OMP_MAX_ACTIVE_LEVELS="+row[22])
			}
			if row[23] != "" {
				environ = append(environ, "OMP_THREAD_LIMIT="+row[23])
			}
		}
		if s.Config, err = env.Parse(m, environ); err != nil {
			return nil, fmt.Errorf("dataset: row %d config: %w", ln+2, err)
		}
		for rIdx := 0; rIdx < sim.Reps; rIdx++ {
			if s.Runtimes[rIdx], err = strconv.ParseFloat(row[13+rIdx], 64); err != nil {
				return nil, fmt.Errorf("dataset: row %d runtime_%d: %w", ln+2, rIdx, err)
			}
		}
		if s.DefaultRuntime, err = strconv.ParseFloat(row[17], 64); err != nil {
			return nil, fmt.Errorf("dataset: row %d default_runtime: %w", ln+2, err)
		}
		if withSource {
			if row[20] == "" {
				return nil, fmt.Errorf("dataset: row %d has an empty source column", ln+2)
			}
			s.Source = row[20]
		}
		if withMeta && row[24] != "" {
			if s.RepsRun, err = strconv.Atoi(row[24]); err != nil {
				return nil, fmt.Errorf("dataset: row %d reps: %w", ln+2, err)
			}
			if s.CoV, err = strconv.ParseFloat(row[25], 64); err != nil {
				return nil, fmt.Errorf("dataset: row %d cov: %w", ln+2, err)
			}
			if s.CIRel, err = strconv.ParseFloat(row[26], 64); err != nil {
				return nil, fmt.Errorf("dataset: row %d ci: %w", ln+2, err)
			}
		}
		d.Samples = append(d.Samples, s)
	}
	return d, nil
}

func fmt1(f float64) string { return strconv.FormatFloat(f, 'g', 10, 64) }

// lastPrinted prints one CSV column with fmt1 and keeps the last value it
// printed, its text and that text parsed back, for columns whose value
// repeats from row to row.
type lastPrinted struct {
	bits   uint64
	text   string
	stored float64
	ok     bool
}

func (c *lastPrinted) print(v float64) string {
	if b := math.Float64bits(v); !c.ok || b != c.bits {
		c.bits, c.text, c.ok = b, fmt1(v), true
		c.stored, _ = strconv.ParseFloat(c.text, 64)
	}
	return c.text
}

// itoaOrEmpty renders an optional integer column: zero (unset) stays empty.
func itoaOrEmpty(n int) string {
	if n == 0 {
		return ""
	}
	return strconv.Itoa(n)
}
