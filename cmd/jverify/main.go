// jverify is the bitstream-level verification driver. It never trusts the
// router: every check re-extracts the routed netlist from raw
// configuration frames through internal/oracle and validates it
// independently.
//
// Modes (combinable; all run when several flags are given):
//
//	jverify -scenario all            # paper worked examples, cross-config audit
//	jverify -steps 2000 -seed 7      # randomized differential campaign
//	jverify -file board.bin          # audit a saved configuration stream
//
// Exit status is non-zero on any divergence or oracle violation.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/arch"
	"repro/internal/oracle"
	"repro/internal/oracle/fuzz"
	"repro/internal/scenario"
)

func main() {
	scenarioFlag := flag.String("scenario", "", "audit a worked example across the config grid: a name or 'all'")
	steps := flag.Int("steps", 0, "run a differential fuzz campaign of this many steps")
	seed := flag.Int64("seed", 1, "campaign seed")
	file := flag.String("file", "", "audit a raw configuration stream file")
	quiet := flag.Bool("q", false, "suppress progress output")
	flag.Parse()

	if *scenarioFlag == "" && *steps == 0 && *file == "" {
		*scenarioFlag = "all"
	}
	logf := func(format string, args ...interface{}) {
		if !*quiet {
			fmt.Printf(format+"\n", args...)
		}
	}

	failed := false
	if *scenarioFlag != "" {
		if !runScenarios(*scenarioFlag, logf) {
			failed = true
		}
	}
	if *file != "" {
		if !auditFile(*file, logf) {
			failed = true
		}
	}
	if *steps > 0 {
		if !runCampaign(*steps, *seed, logf) {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

func runScenarios(which string, logf func(string, ...interface{})) bool {
	a := arch.NewVirtex()
	var list []scenario.Scenario
	if which == "all" {
		list = scenario.All()
	} else {
		s, ok := scenario.ByName(which)
		if !ok {
			log.Printf("jverify: unknown scenario %q", which)
			return false
		}
		list = []scenario.Scenario{s}
	}
	ok := true
	for _, s := range list {
		var ref []byte
		good := true
		for _, cfg := range scenario.Grid {
			stream, claims, err := s.Run(cfg.Opts...)
			if err != nil {
				log.Printf("jverify: scenario %s under %s: %v", s.Name, cfg.Name, err)
				good = false
				break
			}
			if err := oracle.Audit(a, stream, claims, true); err != nil {
				log.Printf("jverify: scenario %s under %s fails oracle audit: %v", s.Name, cfg.Name, err)
				good = false
				break
			}
			if ref == nil {
				ref = stream
			} else if !bytes.Equal(ref, stream) {
				diff, _ := oracle.DiffStreams(a, ref, stream)
				log.Printf("jverify: scenario %s: %s diverges from %s by %d PIPs: %v",
					s.Name, cfg.Name, scenario.Grid[0].Name, len(diff), diff)
				good = false
				break
			}
		}
		if good {
			logf("scenario %-10s ok across %d configs (%s)", s.Name, len(scenario.Grid), s.Doc)
		}
		ok = ok && good
	}
	return ok
}

func auditFile(path string, logf func(string, ...interface{})) bool {
	stream, err := os.ReadFile(path)
	if err != nil {
		log.Printf("jverify: %v", err)
		return false
	}
	a := arch.NewVirtex()
	n, err := oracle.Extract(a, stream)
	if err != nil {
		log.Printf("jverify: %s: %v", path, err)
		return false
	}
	if err := n.Check(); err != nil {
		log.Printf("jverify: %s: %v", path, err)
		return false
	}
	logf("%s: %dx%d array, %d PIPs, %d roots, oracle-clean",
		path, n.Rows, n.Cols, len(n.PIPs), len(n.Roots()))
	return true
}

func runCampaign(steps int, seed int64, logf func(string, ...interface{})) bool {
	res, err := fuzz.Run(fuzz.Options{Seed: seed, Steps: steps, Log: logf})
	if err != nil {
		log.Printf("jverify: campaign (seed %d) diverged: %v", seed, err)
		return false
	}
	logf("campaign seed %d: %d steps, %d audits, %d identical op errors, %d PIPs final",
		seed, res.Steps, res.Audits, res.OpErrors, res.PIPs)
	return true
}
