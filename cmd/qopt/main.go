// Command qopt optimizes a QO_N instance — read from a JSON file
// (qohard -out output) or generated as a random workload — with one or
// all of the registered algorithms, supervised by the ensemble engine:
// runs execute concurrently with per-run instrumentation, panic
// isolation and deadline handling, and the per-optimizer report is
// printed as a table or, with -json, as a structured engine.Report.
//
// The -chaos flag injects deterministic faults into the ensemble
// (panics, stalls, corrupted costs, …) to exercise the engine's
// certification gate and quarantine machinery end to end:
//
//	qopt -shape chain -n 8 -chaos 'panic:greedy-min-cost,wrongcost:dp'
//
// The -route flag hands ensemble selection to the structural
// classifier (internal/classify): the routed subset runs, the pruned
// optimizers are reported as skipped with reasons, and -json wraps the
// report together with the routing decision:
//
//	qopt -shape chain-selective -n 12 -route [-json]
//
// Usage:
//
//	qopt -file instance.json [-algo subset-dp]
//	qopt -shape chain -n 12 [-seed 3] [-algo all] [-timeout 500ms] [-json]
//	qopt -shape skewed-star -n 12 -route
//	qopt -shape chain -n 12 -trace trace.json -metrics [-cpuprofile cpu.pb.gz]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"approxqo/internal/bushy"
	"approxqo/internal/chaos"
	"approxqo/internal/classify"
	"approxqo/internal/cliutil"
	"approxqo/internal/engine"
	"approxqo/internal/opt"
	"approxqo/internal/plan"
	"approxqo/internal/qon"
	"approxqo/internal/report"
	"approxqo/internal/workload"
)

var common = cliutil.Common{Seed: 1}

func main() {
	common.Register(flag.CommandLine)
	file := flag.String("file", "", "JSON instance file (from qohard -out)")
	shape := flag.String("shape", "chain", "workload shape (chain|cycle|star|grid|clique|random) or family (skewed-star|chain-selective|sparse-em|cliquered-yes|cliquered-no)")
	catalog := flag.String("catalog", "", "named catalog query (e.g. tpch-q5-like); overrides -shape")
	listCatalog := flag.Bool("list-catalog", false, "list catalog queries and exit")
	n := flag.Int("n", 10, "workload size")
	algo := flag.String("algo", "all", "algorithm name or 'all'")
	route := flag.Bool("route", false, "pick the ensemble with the structural classifier and report its decision (incompatible with -algo)")
	explain := flag.Bool("explain", false, "print an EXPLAIN tree for the best plan found")
	bushyFlag := flag.Bool("bushy", false, "also optimize over bushy join trees")
	chaosSpec := flag.String("chaos", "", "fault injection spec: fault[:optimizer],... (faults: panic|stall|wrongcost|invalidplan|error|leak)")
	flag.Parse()

	if *listCatalog {
		for _, c := range workload.Catalog() {
			fmt.Printf("%-16s %s\n", c.Name, c.Comment)
		}
		return
	}

	var in *qon.Instance
	var err error
	if *catalog != "" {
		c, cerr := workload.CatalogQueryByName(*catalog)
		if cerr != nil {
			fatal(cerr)
		}
		in = c.Instance
		if !common.JSON {
			fmt.Printf("catalog query %s: %s\n", c.Name, c.Comment)
			for i, name := range c.RelationNames() {
				fmt.Printf("  R%d = %s (%s tuples)\n", i, name, in.T[i])
			}
		}
	} else {
		in, err = loadInstance(*file, *shape, *n, common.Seed)
		if err != nil {
			fatal(err)
		}
	}
	if !common.JSON {
		fmt.Printf("instance: %d relations, %d predicates\n", in.N(), in.Q.EdgeCount())
	}

	optimizers := registry(common.Seed)
	var dec *classify.Decision
	var skips []engine.SkipRecord
	if *route {
		if *algo != "all" {
			fatal(fmt.Errorf("-route picks the ensemble itself; drop -algo"))
		}
		d := classify.Route(classify.Extract(in))
		dec = &d
		optimizers, skips = classify.Ensemble(d, in.N(), common.Seed, nil)
		if !common.JSON {
			fmt.Printf("routing: class=%s recognized=%v tiers=%v budget_frac=%g\n  %s\n",
				d.Class, d.Recognized, d.Tiers, d.BudgetFrac, d.Reason)
		}
	}
	if *algo != "all" {
		var picked []opt.Optimizer
		for _, o := range optimizers {
			if o.Name() == *algo {
				picked = append(picked, o)
			}
		}
		if len(picked) == 0 {
			fatal(fmt.Errorf("no algorithm named %q; have %v", *algo, names(optimizers)))
		}
		optimizers = picked
	}
	if *chaosSpec != "" {
		optimizers, err = chaos.ApplySpec(*chaosSpec, optimizers, chaos.WithSeed(common.Seed))
		if err != nil {
			fatal(err)
		}
		if !common.JSON {
			fmt.Printf("chaos: injecting %q; uncertified results will be quarantined\n", *chaosSpec)
		}
	}

	ctx, cancel := common.Context()
	defer cancel()
	observe := common.Observe("qopt")
	defer common.Close("qopt")
	// Keep every run going: qopt's point is the per-optimizer comparison.
	eng := engine.New(append([]engine.Option{engine.WithoutEarlyExit()}, observe...)...)
	rep, err := eng.Run(ctx, in, optimizers...)
	if err != nil {
		fatal(err)
	}
	rep.Skipped = skips
	if common.JSON {
		if dec != nil {
			err = cliutil.WriteJSON(os.Stdout, struct {
				Routing *classify.Decision `json:"routing"`
				Report  *engine.Report     `json:"report"`
			}{dec, rep})
		} else {
			err = cliutil.WriteJSON(os.Stdout, rep)
		}
		if err != nil {
			fatal(err)
		}
		return
	}
	rep.WriteText(os.Stdout)
	fmt.Printf("best sequence: %v\n", rep.Best.Sequence)

	if *bushyFlag {
		tree, cost, err := bushy.Optimize(in)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nbushy optimum: %s  cost=%s\n", tree, report.Log2(cost))
		if *explain {
			fmt.Print(plan.ExplainBushy(in, tree))
		}
	}
	if *explain {
		fmt.Println()
		fmt.Print(plan.ExplainQON(in, qon.Sequence(rep.Best.Sequence)))
	}
}

func registry(seed int64) []opt.Optimizer {
	return append([]opt.Optimizer{
		opt.NewDP(),
		opt.NewDPParallel(),
		opt.NewDPNoCross(),
	}, append(opt.Heuristics(opt.WithSeed(seed)),
		opt.NewIterativeImprovement(opt.WithSeed(seed), opt.WithRestarts(10)))...)
}

func names(os []opt.Optimizer) []string {
	out := make([]string, len(os))
	for i, o := range os {
		out[i] = o.Name()
	}
	return out
}

func loadInstance(file, shape string, n int, seed int64) (*qon.Instance, error) {
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		var in qon.Instance
		if err := json.Unmarshal(data, &in); err != nil {
			return nil, err
		}
		return &in, nil
	}
	// The Spec grammar covers the basic topologies and the paper-grounded
	// families alike.
	return (&workload.Spec{Shape: shape, N: n, Seed: seed}).Generate()
}

func fatal(err error) {
	common.Fatal("qopt", err)
}
