package core

import (
	"slices"
	"sort"

	"omptune/internal/dataset"
	"omptune/internal/env"
	"omptune/internal/ml"
	"omptune/internal/topology"
)

// Grouping selects one of the three grouping strategies of §IV-D.
type Grouping int

// The grouping strategies. Context features are added per strategy:
// per-application groups get an Architecture feature, per-architecture
// groups get an Application feature, per-architecture-application groups
// get neither.
const (
	PerArchApp Grouping = iota
	PerApp
	PerArch
)

// Feature column labels used in the heatmaps.
const (
	FeatInput = "Input Size"
	FeatNT    = "OMP_NUM_THREADS"
	FeatApp   = "Application"
	FeatArch  = "Architecture"
)

// baseFeatures is the default feature list of §IV-D: input size, thread
// count and the seven studied environment variables.
func baseFeatures() []string {
	names := []string{FeatInput, FeatNT}
	for _, v := range env.Names() {
		names = append(names, string(v))
	}
	return names
}

// appCode and archCode implement the paper's "naive numeric scheme" for
// encoding applications and architectures as features.
func archCode(a topology.Arch) float64 {
	for i, arch := range topology.Arches() {
		if arch == a {
			return float64(i)
		}
	}
	return -1
}

func appCode(name string, names []string) float64 {
	for i, n := range names {
		if n == name {
			return float64(i)
		}
	}
	return -1
}

// featurize builds the design matrix and labels for a group's samples. All
// rows are backed by one slab.
func featurize(samples []*dataset.Sample, cols []string, appNames []string) ([][]float64, []bool) {
	slab := make([]float64, len(samples)*len(cols))
	x := make([][]float64, len(samples))
	y := make([]bool, len(samples))
	for i, s := range samples {
		row := slab[i*len(cols) : (i+1)*len(cols) : (i+1)*len(cols)]
		for j, c := range cols {
			switch c {
			case FeatInput:
				row[j] = s.Scale
			case FeatNT:
				row[j] = float64(s.Threads)
			case FeatApp:
				row[j] = appCode(s.App, appNames)
			case FeatArch:
				row[j] = archCode(s.Arch)
			default:
				row[j] = s.Config.Feature(env.VarName(c))
			}
		}
		x[i] = row
		y[i] = s.Optimal()
	}
	return x, y
}

// featureCols is the feature list of a grouping strategy: the base
// features plus the context feature that varies within its groups.
func featureCols(g Grouping) []string {
	switch g {
	case PerApp:
		return append(baseFeatures(), FeatArch)
	case PerArch:
		return append(baseFeatures(), FeatApp)
	default:
		return baseFeatures()
	}
}

// Heatmap is a rows x features influence matrix; each row sums to 1.
// It carries the model quality per row so readers can judge the fit, as
// §IV-D does via "high model prediction scores".
type Heatmap struct {
	RowLabels []string
	Features  []string
	Cells     [][]float64
	Accuracy  []float64
}

// InfluenceHeatmap trains one logistic-regression classifier per group and
// assembles the weight-normalized coefficient magnitudes into the heatmap
// of the requested grouping: Fig. 2 (PerApp), Fig. 3 (PerArch) or
// Fig. 4 (PerArchApp). It is the one-grouping case of InfluenceHeatmaps.
func InfluenceHeatmap(ds *dataset.Dataset, g Grouping, opt ml.LogisticOptions) (*Heatmap, error) {
	hms, err := InfluenceHeatmaps(ds, opt, g)
	if err != nil {
		return nil, err
	}
	return hms[0], nil
}

// InfluenceHeatmaps returns the influence heatmap of each requested
// grouping, in the order asked, with rows in sorted group-label order. It
// splits ds into the groups of every grouping in one pass and fits all
// their classifiers on one bounded pool (see fitGroups).
func InfluenceHeatmaps(ds *dataset.Dataset, opt ml.LogisticOptions, groupings ...Grouping) ([]*Heatmap, error) {
	buckets := bucketGroups(ds, groupings)
	fits := slices.Concat(buckets...)
	if err := fitGroups(fits, distinctApps(ds), opt); err != nil {
		return nil, err
	}
	hms := make([]*Heatmap, len(groupings))
	for i, g := range groupings {
		hms[i] = &Heatmap{Features: featureCols(g)}
		for _, f := range fits[:len(buckets[i])] {
			hms[i].RowLabels = append(hms[i].RowLabels, f.label)
			hms[i].Cells = append(hms[i].Cells, f.cells)
			hms[i].Accuracy = append(hms[i].Accuracy, f.acc)
		}
		fits = fits[len(buckets[i]):]
	}
	return hms, nil
}

// FeatureRank returns the features of a heatmap ordered by mean influence
// across rows, most influential first — the reading the paper gives of
// Fig. 3 (threads, then proc_bind, then places, ...).
func (h *Heatmap) FeatureRank() []string {
	means := make([]float64, len(h.Features))
	for _, row := range h.Cells {
		for j, v := range row {
			means[j] += v
		}
	}
	idx := make([]int, len(h.Features))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return means[idx[a]] > means[idx[b]] })
	out := make([]string, len(idx))
	for i, j := range idx {
		out[i] = h.Features[j]
	}
	return out
}

// MeanInfluence returns the across-rows mean influence of the named
// feature, or 0 if absent.
func (h *Heatmap) MeanInfluence(feature string) float64 {
	for j, f := range h.Features {
		if f != feature {
			continue
		}
		total := 0.0
		for _, row := range h.Cells {
			total += row[j]
		}
		if len(h.Cells) == 0 {
			return 0
		}
		return total / float64(len(h.Cells))
	}
	return 0
}

// RowInfluence returns the influence of feature in the named row, or 0.
func (h *Heatmap) RowInfluence(row, feature string) float64 {
	for i, r := range h.RowLabels {
		if r != row {
			continue
		}
		for j, f := range h.Features {
			if f == feature {
				return h.Cells[i][j]
			}
		}
	}
	return 0
}

func distinctApps(ds *dataset.Dataset) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range ds.Samples {
		if !seen[s.App] {
			seen[s.App] = true
			out = append(out, s.App)
		}
	}
	sort.Strings(out)
	return out
}

func hasBothClasses(y []bool) bool {
	var t, f bool
	for _, v := range y {
		if v {
			t = true
		} else {
			f = true
		}
		if t && f {
			return true
		}
	}
	return false
}
