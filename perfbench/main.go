// Command perfbench is the repository benchmark: three workloads that
// drive the whole stack — bulk walks on a graph several times the
// last-level cache, mixed-algorithm HTTP serving, and serving under edge
// churn — check every output, and print every metric by name and unit.
//
// It has two subcommands, run as separate processes so input generation
// never shares a process (or its peak memory) with a measurement:
//
//	perfbench gen -workload W -seed N -inputs DIR
//	perfbench run -workload W -seed N -seconds S -trace 0|1 -inputs DIR [-spans FILE]
//
// gen writes the workload graph (once) and the (workload, seed) schedule;
// run reads only those files, sets the system up, measures for S
// seconds, checks the outputs outside the timed window and prints one
// JSON object as its last line of standard output. perfbench/run.py
// builds the binary and runs both; README.md explains the workloads and
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to figures.
type metrics map[string]metric

// set stores a figure, mapping a non-finite value (an empty ratio) to 0
// so the report stays valid JSON.
func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// result is the benchmark's output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// runConfig carries the run subcommand's arguments.
type runConfig struct {
	w       workload
	seed    uint64
	seconds time.Duration
	trace   bool
	inputs  string
	spans   string
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench gen|run [flags]")
		os.Exit(2)
	}
	fs := flag.NewFlagSet(os.Args[1], flag.ExitOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed")
	inputs := fs.String("inputs", "", "directory holding generated inputs")
	seconds := fs.Float64("seconds", 10, "measured time per phase")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spans := fs.String("spans", "", "traced run: write spans here as JSON lines")
	fs.Parse(os.Args[2:])
	w, err := workloadByName(*name)
	if err != nil || *inputs == "" {
		fmt.Fprintf(os.Stderr, "perfbench: need a known -workload and -inputs (%v)\n", err)
		os.Exit(2)
	}
	switch os.Args[1] {
	case "gen":
		// Every workload's graph, so that the first run in a checkout,
		// whichever workload it is, pays for all graph generation.
		for _, gw := range workloads {
			if err = generateGraph(gw, *inputs); err != nil {
				break
			}
		}
		if err == nil {
			err = generate(w, *seed, *inputs)
		}
	case "run":
		cfg := runConfig{w: w, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
			trace: *trace == 1, inputs: *inputs, spans: *spans}
		var res result
		if res, err = run(cfg); err == nil {
			var b []byte
			if b, err = json.Marshal(res); err == nil {
				fmt.Println(string(b))
			}
		}
	default:
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// run executes one workload run.
func run(cfg runConfig) (result, error) {
	ops, err := readSchedule(cfg.w.schedulePath(cfg.inputs, cfg.seed))
	if err != nil {
		return result{}, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var res result
	if cfg.w.serve {
		res, err = runServe(cfg, ops, tr)
	} else {
		res, err = runBulk(cfg, ops, tr)
	}
	if err != nil {
		return result{}, err
	}
	if err := tr.writeFile(cfg.spans); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	return res, nil
}
