// Command crcrun executes a MiniC program on the cycle-accounting VM (the
// simulated 206 MHz StrongARM SA-1110) without any reuse transformation —
// useful for testing programs and measuring baselines.
//
// Usage:
//
//	crcrun [flags] file.c [arg1 arg2 ...]
//
//	-O3        use the optimized cost model and optimizer
//	-stats     print cycle/energy statistics after the program output
//	-freq      print the hottest functions (execution-frequency profile)
//	-cfg F     print function F's control-flow graph in Graphviz format
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"

	"compreuse/internal/cfg"
	"compreuse/internal/cost"
	"compreuse/internal/energy"
	"compreuse/internal/interp"
	"compreuse/internal/minic"
	"compreuse/internal/opt"
)

func main() {
	o3 := flag.Bool("O3", false, "optimize aggressively")
	stats := flag.Bool("stats", false, "print execution statistics")
	freq := flag.Bool("freq", false, "print per-function execution counts")
	cfgOf := flag.String("cfg", "", "print the control-flow graph of the named function (Graphviz) and exit")
	flag.Parse()

	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: crcrun [flags] file.c [main args...]")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	var args []int64
	for _, a := range flag.Args()[1:] {
		v, err := strconv.ParseInt(a, 10, 64)
		if err != nil {
			fatal(fmt.Errorf("main argument %q is not an integer", a))
		}
		args = append(args, v)
	}

	prog, err := minic.Parse(flag.Arg(0), string(src))
	if err != nil {
		fatal(err)
	}
	if err := minic.Check(prog); err != nil {
		fatal(err)
	}
	if *cfgOf != "" {
		fn := prog.Func(*cfgOf)
		if fn == nil {
			fatal(fmt.Errorf("no function %q", *cfgOf))
		}
		fmt.Print(cfg.Build(fn).Dot())
		return
	}
	model := cost.O0()
	if *o3 {
		opt.Run(prog)
		model = cost.O3()
	}
	res, err := interp.Run(prog, interp.Options{
		Model:       model,
		Args:        args,
		CollectFreq: *freq,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Print(res.Output)
	if *stats {
		m := energy.Measure(res, energy.Default())
		fmt.Fprintf(os.Stderr, "exit: %d\n", res.Ret)
		fmt.Fprintf(os.Stderr, "cycles: %d (%.4fs at 206MHz, %s)\n", res.Cycles, res.Seconds(), model.Name)
		fmt.Fprintf(os.Stderr, "steps: %d statements\n", res.Steps)
		fmt.Fprintf(os.Stderr, "energy: %.3fJ (avg %.2fW, %.3fA at 5V)\n", m.Joules, m.AvgWatts, m.AvgCurrentA)
		fmt.Fprintf(os.Stderr, "ops: int=%d mul=%d div=%d float=%d mem=%d branch=%d call=%d\n",
			res.Ops.IntOps, res.Ops.MulOps, res.Ops.DivOps, res.Ops.FloatOps,
			res.Ops.MemOps, res.Ops.Branches, res.Ops.Calls)
	}
	if *freq {
		type fc struct {
			name  string
			count int64
		}
		var fns []fc
		for _, fn := range prog.Funcs {
			if fn.ID() < len(res.Freq) && res.Freq[fn.ID()] > 0 {
				fns = append(fns, fc{fn.Name, res.Freq[fn.ID()]})
			}
		}
		sort.Slice(fns, func(i, j int) bool { return fns[i].count > fns[j].count })
		fmt.Fprintln(os.Stderr, "function call counts:")
		for _, f := range fns {
			fmt.Fprintf(os.Stderr, "  %-30s %d\n", f.name, f.count)
		}
	}
	if res.Ret != 0 {
		os.Exit(int(res.Ret & 0x7f))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "crcrun:", err)
	os.Exit(1)
}
