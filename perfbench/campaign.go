package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"

	"omptune"
)

// campaignSamples is the size of the Table II campaign that omptune.Collect
// runs with default options.
const campaignSamples = 244305

// campaign is the full model campaign, then its CSV written and read back.
// Its inputs are the paper's fixed campaign; the seed does not change them,
// because the sample-count oracle pins the campaign.
type campaign struct {
	opt omptune.CollectOptions
	// Outputs of the last run, kept for verify.
	samples int
	csv     []byte
	csvMB   float64
	back    *omptune.Dataset
	// lastDigit is how many rows of the last round trip printed speedup
	// one unit apart in its last digit.
	lastDigit int
}

// setupCampaign builds the options and runs a one-application warm-up
// campaign through the same three calls, so the timed jobs do not pay for
// first use of the code and heap.
func setupCampaign(_ int64, _ *tracer) (instance, error) {
	c := &campaign{opt: omptune.CollectOptions{Workers: runtime.NumCPU()}}
	warm := &campaign{opt: omptune.CollectOptions{
		Arches:  []omptune.Arch{omptune.A64FX},
		Apps:    []string{"Nqueens"},
		Workers: c.opt.Workers,
	}}
	if err := warm.run(nil); err != nil {
		return nil, fmt.Errorf("warm-up campaign: %w", err)
	}
	return c, nil
}

func (c *campaign) run(tr *tracer) error {
	c.csv, c.back = nil, nil
	sp := tr.begin("core.sweep")
	ds, err := omptune.Collect(c.opt)
	tr.end(sp)
	if err != nil {
		return err
	}
	c.samples = len(ds.Samples)
	var buf bytes.Buffer
	sp = tr.begin("dataset.write_csv")
	err = omptune.WriteDatasetCSV(&buf, ds)
	tr.end(sp)
	if err != nil {
		return err
	}
	ds = nil // let the read-back run without the collected dataset alive
	sp = tr.begin("dataset.read_csv")
	c.back, err = omptune.ReadDatasetCSV(bytes.NewReader(buf.Bytes()))
	tr.end(sp)
	c.csv = buf.Bytes()
	c.csvMB = float64(buf.Len()) / (1 << 20)
	return err
}

func (c *campaign) verify() (attempted, failed int) {
	if c.samples != campaignSamples {
		failed++
		fmt.Fprintf(os.Stderr, "campaign: %d samples, want %d\n", c.samples, campaignSamples)
	}
	lines, bad, lastDigit, err := roundTrip(c.csv, c.back)
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign: %d of %d CSV lines differ; first: %v\n", bad, lines, err)
	}
	c.lastDigit = lastDigit
	c.csv, c.back = nil, nil
	return 1 + lines, failed + bad
}

func (c *campaign) layers(tr *tracer, vals map[string]float64) {
	alloc := allocMB(tr.spans)
	vals["core.sweep.samples"] = float64(c.samples)
	vals["core.sweep.samples_per_s"] = float64(c.samples) / vals["core.sweep_s"]
	vals["core.sweep.alloc_mb"] = alloc["core.sweep"]
	vals["dataset.write_csv_alloc_mb"] = alloc["dataset.write_csv"]
	vals["dataset.read_csv_alloc_mb"] = alloc["dataset.read_csv"]
	vals["dataset.csv_mb"] = c.csvMB
	vals["dataset.speedup_last_digit_rows"] = float64(c.lastDigit)
}
