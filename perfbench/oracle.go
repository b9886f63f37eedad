package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/csv"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"omptune"
)

// The oracles check a job's outputs after it is timed. Each returns an
// error describing the mismatch; the caller counts it as a failed check and
// carries on, so a wrong output lowers success_rate instead of ending the
// run.

// roundTrip writes back the dataset read from written and compares the
// two CSVs line by line: every line of written is one check, and a line
// that differs or is missing from the rewrite is a failed one. A dataset
// that could not be read back fails every line.
//
// The one difference it allows is in the last digit of speedup, the only
// derived column the reader recomputes: the writer prints it from the
// full-precision runtimes, the rewrite from the runtimes as stored to 10
// significant digits, so at a rounding tie the two can print one unit
// apart in the 10th digit. Such lines are counted in lastDigit, not in
// failed; every stored column must still match byte for byte.
func roundTrip(written []byte, back *omptune.Dataset) (checked, failed, lastDigit int, first error) {
	want := lines(written)
	var again bytes.Buffer
	if back == nil {
		first = errors.New("round trip: no dataset was read back")
	} else if err := omptune.WriteDatasetCSV(&again, back); err != nil {
		first = fmt.Errorf("round trip: rewrite: %w", err)
	}
	got := lines(again.Bytes())
	col := speedupColumn(want[0])
	for i, line := range want {
		if i < len(got) && bytes.Equal(got[i], line) {
			continue
		}
		if i > 0 && i < len(got) && col >= 0 && lastDigitApart(line, got[i], col) {
			lastDigit++
			continue
		}
		failed++
		if first == nil {
			var g []byte
			if i < len(got) {
				g = got[i]
			}
			first = fmt.Errorf("round trip: line %d was %q, rewritten %q", i+1, bytes.TrimSpace(line), bytes.TrimSpace(g))
		}
	}
	if len(got) > len(want) {
		failed++ // extra lines in the rewrite
		if first == nil {
			first = fmt.Errorf("round trip: rewrite has %d lines, first write %d", len(got), len(want))
		}
	}
	return len(want), failed, lastDigit, first
}

// speedupColumn is the index of the speedup column in a CSV header line,
// or -1 if it has none.
func speedupColumn(header []byte) int {
	rec, err := csv.NewReader(bytes.NewReader(header)).Read()
	if err != nil {
		return -1
	}
	return slices.Index(rec, "speedup")
}

// lastDigitApart reports whether two CSV lines are equal in every field but
// col, and field col holds numbers at most one unit apart in their 10th
// significant digit.
func lastDigitApart(a, b []byte, col int) bool {
	ra, errA := csv.NewReader(bytes.NewReader(a)).Read()
	rb, errB := csv.NewReader(bytes.NewReader(b)).Read()
	if errA != nil || errB != nil || len(ra) != len(rb) || col >= len(ra) {
		return false
	}
	for i := range ra {
		if i != col && ra[i] != rb[i] {
			return false
		}
	}
	x, errA := strconv.ParseFloat(ra[col], 64)
	y, errB := strconv.ParseFloat(rb[col], 64)
	if errA != nil || errB != nil || x == 0 || math.IsNaN(x) || math.IsInf(x, 0) {
		return false
	}
	unit := math.Pow(10, math.Floor(math.Log10(math.Abs(x)))-9)
	// Half a unit of slack for the binary error of the two parsed values.
	return math.Abs(x-y) <= 1.5*unit
}

// lines splits b after each newline.
func lines(b []byte) [][]byte {
	return bytes.SplitAfter(bytes.TrimSuffix(b, []byte("\n")), []byte("\n"))
}

// reportDigest is the SHA-256 of omptune.WriteReport over the default
// campaign, in hex.
//
//go:embed report.sha256
var reportDigest string

// verifyDigest checks a report's SHA-256 against the hex digest want.
func verifyDigest(sum [sha256.Size]byte, want string) error {
	if got := hex.EncodeToString(sum[:]); got != strings.TrimSpace(want) {
		return fmt.Errorf("report digest %s, want %s", got, strings.TrimSpace(want))
	}
	return nil
}

// checksumOK reports whether a kernel checksum matches its 1-thread
// reference within the tolerance the kernel tests use: 1e-6 relative, plus
// 1e-6 absolute for references near zero.
func checksumOK(got, ref float64) bool {
	return math.Abs(got-ref) <= 1e-6*(1+math.Abs(ref))
}

// minFractionOfBest is the search-quality floor: a budgeted search must
// reach this share of the exhaustive model best speedup of its target. It
// is the floor the repository's search smoke test holds anneal and
// surrogate to at the same 300-evaluation budget.
const minFractionOfBest = 0.90

// verifyFraction checks a search's fraction of the exhaustive best. Above 1
// means the search beat the exhaustive sweep over the same space, which the
// reference rules out.
func verifyFraction(frac float64) error {
	if frac < minFractionOfBest || frac > 1+1e-12 || math.IsNaN(frac) {
		return fmt.Errorf("fraction of exhaustive best %.4f outside [%.2f, 1]", frac, minFractionOfBest)
	}
	return nil
}
