package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// steady runs one workload in opt.sets sets of opt.steady processes, each
// with a seed of its own counting up from opt.seed, and prints every run's
// result line and, per metric, the median, the quartiles
// and the spread (interquartile distance over the median) of every set. For
// an end-to-end metric it also prints the bound from BENCHMARK.json and, from
// the second set on, how far its median moved from the first set's. These
// are the figures by which the benchmark is judged steady.
func steady(spec *benchSpec, opt options) error {
	if opt.steady < 2 {
		return fmt.Errorf("--steady needs at least 2 runs, got %d", opt.steady)
	}
	if _, err := findWorkload(opt.workload); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	declared := spec.EndToEnd
	if opt.trace == 1 {
		declared = spec.PerLayer
	}
	var firstMedians map[string]float64
	for set := 0; set < opt.sets; set++ {
		values := map[string][]float64{}
		for i := 0; i < opt.steady; i++ {
			seed := opt.seed + int64(set*opt.steady+i)
			res, err := child(self, opt, seed)
			if err != nil {
				return fmt.Errorf("set %d seed %d: %w", set+1, seed, err)
			}
			line, err := json.Marshal(res)
			if err != nil {
				return err
			}
			fmt.Printf("set %d seed %d: %s\n", set+1, seed, line)
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		medians := map[string]float64{}
		fmt.Printf("%s set %d: %d runs, --seconds %g --trace %d\n", opt.workload, set+1, opt.steady, opt.seconds, opt.trace)
		fmt.Printf("%-44s %12s %12s %12s %8s %6s %9s\n", "metric", "median", "q1", "q3", "spread", "bound", "vs set 1")
		for _, m := range declared {
			vs := values[m.Name]
			if len(vs) == 0 {
				continue
			}
			med := median(vs)
			q1, q3 := quartiles(vs)
			medians[m.Name] = med
			spread, shift := "-", "-"
			if med != 0 {
				spread = strconv.FormatFloat((q3-q1)/med, 'f', 4, 64)
			}
			if first, ok := firstMedians[m.Name]; ok && first != 0 {
				shift = strconv.FormatFloat((med-first)/first, 'f', 4, 64)
			}
			bound := "-"
			if m.Bound > 0 {
				bound = strconv.FormatFloat(m.Bound, 'f', 2, 64)
			}
			fmt.Printf("%-44s %12.6g %12.6g %12.6g %8s %6s %9s\n", m.Name, med, q1, q3, spread, bound, shift)
		}
		if firstMedians == nil {
			firstMedians = medians
		}
	}
	return nil
}

// child runs one benchmark process and parses its result line.
func child(self string, opt options, seed int64) (result, error) {
	cmd := exec.Command(self, "--workload", opt.workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "--trace", strconv.Itoa(opt.trace))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, err
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("result line: %w", err)
	}
	return res, nil
}
