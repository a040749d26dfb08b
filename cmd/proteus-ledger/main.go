// Command proteus-ledger is the offline side of the provenance ledger:
// it inspects, extends and audits the Merkle-chained ledger that lives
// next to a result store.
//
//	proteus-ledger head   -store DIR            print the chain tip
//	proteus-ledger verify -store DIR [-key K]   verify the full chain
//	                                            (and K's inclusion proof)
//	proteus-ledger append -store DIR            backfill: seal result
//	                                            leaves for unledgered
//	                                            entries
//	proteus-ledger audit  -store DIR            cross-check store vs
//	                                            ledger; exit 1 on any
//	                                            divergence or truncation
//
// audit flags: -allow-unledgered tolerates entries the chain never
// sealed (a store written with the ledger off — run append first);
// -require-present fails on sealed results whose entries vanished
// (default: reported but tolerated, a cache is allowed to re-simulate).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/ledger"
	"repro/internal/resultstore"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "head":
		fs := flag.NewFlagSet("head", flag.ExitOnError)
		storeDir := fs.String("store", "proteus-store", "result store directory")
		fs.Parse(args)
		lg := openLedger(*storeDir)
		printJSON(lg.Head())
	case "verify":
		fs := flag.NewFlagSet("verify", flag.ExitOnError)
		storeDir := fs.String("store", "proteus-store", "result store directory")
		key := fs.String("key", "", "also verify the inclusion proof for this key")
		kind := fs.String("kind", "", "narrow -key to one leaf kind (result, admission)")
		fs.Parse(args)
		// Open re-verifies the whole chain — every root against its
		// leaves, every head against its predecessor — so reaching this
		// line means the file is intact.
		lg := openLedger(*storeDir)
		out := map[string]any{"chain": "ok", "head": lg.Head()}
		if *key != "" {
			p, err := lg.Proof(*key, *kind)
			exitOn(err)
			exitOn(lg.VerifyProof(p))
			out["proof"] = p
		}
		printJSON(out)
	case "append":
		fs := flag.NewFlagSet("append", flag.ExitOnError)
		storeDir := fs.String("store", "proteus-store", "result store directory")
		batch := fs.Int("batch", 256, "max leaves per sealed batch")
		fs.Parse(args)
		st, lg := openBoth(*storeDir)
		b := ledger.NewBatcher(lg, *batch, 0)
		n, err := ledger.Backfill(context.Background(), st, b)
		b.Close()
		exitOn(err)
		printJSON(map[string]any{"sealed": n, "head": lg.Head()})
	case "audit":
		fs := flag.NewFlagSet("audit", flag.ExitOnError)
		storeDir := fs.String("store", "proteus-store", "result store directory")
		allowUnledgered := fs.Bool("allow-unledgered", false, "tolerate live entries the ledger never sealed")
		requirePresent := fs.Bool("require-present", false, "fail on sealed results with no live store entry")
		fs.Parse(args)
		st, lg := openBoth(*storeDir)
		rep, err := ledger.Audit(st, lg)
		exitOn(err)
		printJSON(rep)
		if aerr := rep.Err(*allowUnledgered, *requirePresent); aerr != nil {
			fmt.Fprintln(os.Stderr, "proteus-ledger:", aerr)
			os.Exit(1)
		}
	default:
		usage()
	}
}

func openLedger(storeDir string) *ledger.Ledger {
	lg, err := ledger.Open(ledger.DefaultPath(storeDir), nil)
	exitOn(err)
	return lg
}

func openBoth(storeDir string) (*resultstore.Store, *ledger.Ledger) {
	st, err := resultstore.Open(storeDir)
	exitOn(err)
	return st, openLedger(storeDir)
}

func printJSON(v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	exitOn(err)
	fmt.Println(string(data))
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: proteus-ledger {head|verify|append|audit} [flags]")
	os.Exit(2)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "proteus-ledger:", err)
		os.Exit(1)
	}
}
