package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"os"
	"runtime"
	"strings"

	"omptune"
)

// report reads the campaign's CSV back and renders every table and figure.
// Its input is the fixed default campaign, so the report digest oracle
// holds for every seed.
type report struct {
	csv []byte
	sum [sha256.Size]byte
}

func setupReport(_ int64, _ *tracer) (instance, error) {
	ds, err := omptune.Collect(omptune.CollectOptions{Workers: runtime.NumCPU()})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := omptune.WriteDatasetCSV(&buf, ds); err != nil {
		return nil, err
	}
	return &report{csv: buf.Bytes()}, nil
}

func (r *report) run(tr *tracer) error {
	sp := tr.begin("dataset.read_csv")
	ds, err := omptune.ReadDatasetCSV(bytes.NewReader(r.csv))
	tr.end(sp)
	if err != nil {
		return err
	}
	w := newSectionWriter(tr)
	err = omptune.WriteReport(w, ds)
	w.finish()
	r.sum = w.sum()
	return err
}

func (r *report) verify() (attempted, failed int) {
	if err := verifyDigest(r.sum, reportDigest); err != nil {
		fmt.Fprintln(os.Stderr, "report:", err)
		return 1, 1
	}
	return 1, 0
}

// sectionLayer maps a report section's slug to the layer that does most of
// its work. Sections not listed still get their own report.section metric.
var sectionLayer = map[string]string{
	"table_ii": "core.analysis", "table_iv": "core.analysis", "table_v": "core.analysis",
	"table_vi": "core.analysis", "table_vii": "core.analysis",
	"q1": "core.analysis", "q2": "core.analysis", "q4": "core.analysis",
	"table_iii": "stats.wilcoxon",
	"q3":        "ml.influence", "fig_2": "ml.influence", "fig_3": "ml.influence", "fig_4": "ml.influence",
	"fig_1": "viz.violin", "fig_5": "viz.violin", "fig_6": "viz.violin", "fig_7": "viz.violin",
}

const sectionPrefix = "report.section."

func (r *report) layers(_ *tracer, vals map[string]float64) {
	for _, l := range []string{"core.analysis", "stats.wilcoxon", "ml.influence", "viz.violin"} {
		vals[l+"_s"] = 0
	}
	for name, v := range vals {
		if s, ok := strings.CutPrefix(name, sectionPrefix); ok {
			if l, ok := sectionLayer[strings.TrimSuffix(s, "_s")]; ok {
				vals[l+"_s"] += v
			}
		}
	}
}

// sectionWriter hashes everything WriteReport writes and, when tracing,
// times each section: it watches the output for the report's
// "======== <title> ========" header lines and opens a span named after the
// title at each one, so the benchmark needs no copy of the section list.
type sectionWriter struct {
	tr      *tracer
	h       hash.Hash
	partial []byte // the current line, up to the last write
	open    int    // span of the current section, -1 before the first
}

func newSectionWriter(tr *tracer) *sectionWriter {
	return &sectionWriter{tr: tr, h: sha256.New(), open: -1}
}

func (w *sectionWriter) Write(p []byte) (int, error) {
	n := len(p)
	w.h.Write(p)
	if w.tr == nil {
		return n, nil
	}
	for len(p) > 0 {
		i := bytes.IndexByte(p, '\n')
		if i < 0 {
			w.partial = append(w.partial, p...)
			break
		}
		w.partial = append(w.partial, p[:i]...)
		w.line(string(w.partial))
		w.partial, p = w.partial[:0], p[i+1:]
	}
	return n, nil
}

// line handles one complete output line.
func (w *sectionWriter) line(l string) {
	const bar = "======== "
	if !strings.HasPrefix(l, bar) || !strings.HasSuffix(l, " ========") || len(l) <= 2*len(bar) {
		return
	}
	w.tr.end(w.open)
	w.open = w.tr.begin(sectionPrefix + slug(l[len(bar):len(l)-len(bar)]))
}

// finish closes the last section.
func (w *sectionWriter) finish() { w.tr.end(w.open) }

func (w *sectionWriter) sum() (s [sha256.Size]byte) {
	copy(s[:], w.h.Sum(nil))
	return s
}
