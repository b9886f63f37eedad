package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"omptune/internal/dataset"
	"omptune/internal/ml"
	"omptune/internal/topology"
)

// groupFit is one §IV-D group: its heatmap row label, its samples in
// dataset order and the feature columns of its grouping. Once fitGroups
// returns, it also holds the group's heatmap row — the weight-normalized
// influences and the training accuracy — or the error of its fit.
type groupFit struct {
	label   string
	samples []*dataset.Sample
	cols    []string
	cells   []float64
	acc     float64
	err     error
}

// bucketGroups splits ds into the groups of each grouping in one pass over
// its samples. Groups are keyed by (app, arch) with the field a grouping
// ignores left empty, so no label is built per sample. Samples keep their
// dataset order within a group, and each grouping's groups are sorted by
// label.
func bucketGroups(ds *dataset.Dataset, groupings []Grouping) [][]groupFit {
	type key struct {
		app  string
		arch topology.Arch
	}
	out := make([][]groupFit, len(groupings))
	index := make([]map[key]int, len(groupings))
	for i := range index {
		index[i] = map[key]int{}
	}
	for _, s := range ds.Samples {
		for i, g := range groupings {
			k, label := key{app: s.App, arch: s.Arch}, ""
			switch g {
			case PerApp:
				k.arch, label = "", s.App
			case PerArch:
				k.app, label = "", string(s.Arch)
			}
			gi, ok := index[i][k]
			if !ok {
				if label == "" {
					label = s.App + "@" + string(s.Arch)
				}
				gi = len(out[i])
				index[i][k] = gi
				out[i] = append(out[i], groupFit{label: label, cols: featureCols(g)})
			}
			out[i][gi].samples = append(out[i][gi].samples, s)
		}
	}
	for _, groups := range out {
		sort.Slice(groups, func(a, b int) bool { return groups[a].label < groups[b].label })
	}
	return out
}

// fitGroups fits every group on a pool of runtime.GOMAXPROCS(0) workers,
// largest group first so the longest fit does not start last. Each fit is
// sequential and writes only its own element of fits, so the results are
// the same bits whatever the scheduling. appNames fixes the Application
// feature codes. The error returned is the first in fits order.
func fitGroups(fits []groupFit, appNames []string, opt ml.LogisticOptions) error {
	jobs := make([]*groupFit, len(fits))
	for i := range fits {
		jobs[i] = &fits[i]
	}
	sort.SliceStable(jobs, func(a, b int) bool { return len(jobs[a].samples) > len(jobs[b].samples) })
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(jobs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := next.Add(1) - 1; k < int64(len(jobs)); k = next.Add(1) - 1 {
				jobs[k].fit(appNames, opt)
			}
		}()
	}
	wg.Wait()
	for _, f := range fits {
		if f.err != nil {
			return f.err
		}
	}
	return nil
}

func (f *groupFit) fit(appNames []string, opt ml.LogisticOptions) {
	x, y := featurize(f.samples, f.cols, appNames)
	if !hasBothClasses(y) {
		// A group where nothing (or everything) beats the default has no
		// decision boundary; report zero influence, as the paper's
		// missing Sort/Strassen cells do.
		f.cells, f.acc = make([]float64, len(f.cols)), 1
		return
	}
	model, err := ml.FitLogistic(x, y, opt)
	if err != nil {
		f.err = fmt.Errorf("core: group %s: %w", f.label, err)
		return
	}
	f.cells, f.acc = model.Influence(), model.Accuracy(x, y)
}
