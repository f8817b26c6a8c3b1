// Command perfisoctl is the local debugging client of §4: it drives a
// live PerfIso controller with runtime commands while a colocation
// scenario runs, and reports the effect of each command on tail latency
// and the CPU split.
//
// The scenario is the standard single-machine colocation (IndexServe at
// -qps with a 48-thread CPU bully under blind isolation). Commands come
// from a script file: one per line, `<seconds> <json-command>`, e.g.
//
//	2.5  {"op":"set-buffer","value":4}
//	5    {"op":"disable"}
//	7    {"op":"enable"}
//
// Usage:
//
//	perfisoctl -script ops.txt [-qps 2000] [-seconds 10]
package main

import (
	"flag"
	"fmt"
	"os"

	"perfiso/internal/core"
	"perfiso/internal/node"
	"perfiso/internal/sim"
	"perfiso/internal/workload"
)

func main() {
	scriptPath := flag.String("script", "", "command script file (required)")
	qps := flag.Float64("qps", 2000, "primary query rate")
	seconds := flag.Float64("seconds", 10, "scenario length in virtual seconds")
	flag.Parse()
	if *scriptPath == "" {
		fmt.Fprintln(os.Stderr, "perfisoctl: -script is required")
		os.Exit(2)
	}
	f, err := os.Open(*scriptPath)
	if err != nil {
		fatal(err)
	}
	script, err := core.ParseScript(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	eng := sim.NewEngine()
	n := node.New(eng, node.DefaultConfig())
	bully := workload.NewCPUBully(n.CPU, "bully", 48)
	bully.Start()
	ctrl, err := core.NewController(n.OS, core.DefaultConfig())
	if err != nil {
		fatal(err)
	}
	ctrl.ManageSecondary(bully.Proc)
	ctrl.Start()

	script.Schedule(ctrl, func(tc core.TimedCommand, err error) {
		status := "ok"
		if err != nil {
			status = err.Error()
		}
		fmt.Printf("[%8.3fs] apply %-18s value=%-8g → %s   (idle=%d, buffer=%d)\n",
			eng.Now().Seconds(), tc.Command.Op, tc.Command.Value, status,
			n.OS.IdleCores(), ctrl.Blind.Buffer())
	})

	queries := int(*qps * *seconds)
	trace := workload.GenerateTrace(workload.TraceConfig{Queries: queries, Rate: *qps, Seed: 7})
	n.ReplayTrace(trace, queries/10)
	eng.Run(sim.Time(sim.Duration(*seconds * float64(sim.Second))).Add(sim.Duration(2) * sim.Second))

	fmt.Printf("\nfinal: %v\n", n.Server.Latency.Summary())
	fmt.Printf("cpu:   %v\n", n.CPU.Breakdown())
	tally := eng.Counts().Tally
	fmt.Printf("blind: %d polls, %d shrinks, %d grows\n",
		ctrl.Blind.Polls, tally.BufferShrinks, tally.BufferGrows)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfisoctl:", err)
	os.Exit(1)
}
