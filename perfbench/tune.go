package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"

	"omptune"
)

// Tune workload shape: how many (arch, app, setting) targets a seed draws,
// the strategies searched on each, and their evaluation budget.
const (
	tuneTargets = 24
	tuneBudget  = 300
)

var tuneStrategies = []string{"anneal", "surrogate"}

type tuneTarget struct {
	machine *omptune.Machine
	app     *omptune.App
	setting omptune.Setting
	// best is the exhaustive model optimum of the target's space: the least
	// mean runtime over every configuration.
	best float64
	seed uint64
}

// searchOutcome is what the oracles and layers read from one search.
type searchOutcome struct {
	key         string // best configuration and budget use, for the determinism check
	evals, hits int
	fraction    float64
	err         error
}

// tune runs budgeted anneal and surrogate searches over a seeded draw of
// targets on the model backend.
type tune struct {
	targets []tuneTarget
	last    [][]searchOutcome // [target][strategy] of the last run
	first   [][]searchOutcome // the first run, which later runs must repeat
}

// setupTune draws the targets and builds their exhaustive model reference.
// The draw takes the same number of targets from each machine: a surrogate
// search costs about 1.4 times and the reference twice as much on a
// 9216-configuration space as on a 4608-configuration one, so an
// unstratified draw would make the work, and with it wall_s and setup_s,
// depend on the seed.
func setupTune(seed int64, tr *tracer) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	machines := omptune.Machines()
	t := &tune{}
	for _, m := range machines {
		var all []tuneTarget
		for _, a := range omptune.Applications() {
			if !a.RunsOn(m.Arch) {
				continue
			}
			for _, s := range a.Settings(m) {
				all = append(all, tuneTarget{machine: m, app: a, setting: s})
			}
		}
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		t.targets = append(t.targets, all[:tuneTargets/len(machines)]...)
	}
	sp := tr.begin("sim.reference_sweep")
	for i := range t.targets {
		tg := &t.targets[i]
		tg.seed = rng.Uint64()
		tg.best = exhaustiveBest(tg.machine, tg.app, tg.setting)
	}
	tr.end(sp)
	return t, nil
}

// exhaustiveBest is the least mean modeled runtime over the machine's whole
// configuration space, averaged exactly as the search objective averages.
func exhaustiveBest(m *omptune.Machine, a *omptune.App, s omptune.Setting) float64 {
	best := 0.0
	for i, cfg := range omptune.ConfigSpace(m) {
		total := 0.0
		for rep := 0; rep < omptune.Repetitions; rep++ {
			total += omptune.Simulate(m, a, cfg, s, rep)
		}
		if mean := total / omptune.Repetitions; i == 0 || mean < best {
			best = mean
		}
	}
	return best
}

func (t *tune) run(tr *tracer) error {
	t.last = make([][]searchOutcome, len(t.targets))
	for i, tg := range t.targets {
		t.last[i] = make([]searchOutcome, len(tuneStrategies))
		for j, name := range tuneStrategies {
			s, err := omptune.NewSearcher(name)
			if err != nil {
				return err
			}
			spec := omptune.SearchSpec{
				Machine: tg.machine, App: tg.app, Setting: tg.setting, Seed: tg.seed,
				Budget: omptune.SearchBudget{MaxEvals: tuneBudget},
				Cache:  omptune.NewEvalCache(),
			}
			sp := tr.begin("core.search." + name)
			res, err := s.Search(context.Background(), spec)
			tr.end(sp)
			t.last[i][j] = searchOutcome{
				key:      fmt.Sprintf("%s %.17g %d %d", res.Best.Key(), res.BestSeconds, res.Evaluations, res.CacheHits),
				evals:    res.Evaluations,
				hits:     res.CacheHits,
				fraction: tg.best / res.BestSeconds,
				err:      err,
			}
		}
	}
	return nil
}

// verify checks every search of the last run: no error, the quality floor,
// and the same result as the first run made from the same seed.
func (t *tune) verify() (attempted, failed int) {
	if t.first == nil {
		t.first = t.last
	}
	for i, outs := range t.last {
		for j, o := range outs {
			attempted++
			err := o.err
			if err == nil {
				err = verifyFraction(o.fraction)
			}
			if err == nil && o.key != t.first[i][j].key {
				err = fmt.Errorf("result %q differs from the first run's %q", o.key, t.first[i][j].key)
			}
			if err != nil {
				failed++
				tg := t.targets[i]
				fmt.Fprintf(os.Stderr, "tune: %s %s@%s/%s: %v\n", tuneStrategies[j], tg.app.Name, tg.machine.Arch, tg.setting.Label, err)
			}
		}
	}
	return attempted, failed
}

func (t *tune) layers(_ *tracer, vals map[string]float64) {
	for j, name := range tuneStrategies {
		evals, hits, frac := 0, 0, 0.0
		for _, outs := range t.last {
			evals += outs[j].evals
			hits += outs[j].hits
			frac += outs[j].fraction
		}
		p := "core.search." + name
		vals[p+".evals"] = float64(evals)
		vals[p+".cache_hit_rate"] = float64(hits) / float64(evals)
		vals[p+".fraction_of_best"] = frac / float64(len(t.last))
	}
}
