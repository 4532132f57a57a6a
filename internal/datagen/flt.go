package datagen

import (
	"math/rand"

	"repro/internal/bias"
	"repro/internal/db"
	"repro/internal/logic"
)

// FLT generates the flights dataset (§6.1): 3 relations about flights,
// airports and route legs. The task from the paper's funded project —
// "learn the flights with the same source that pass through a given
// location" — becomes throughLoc(fid): flights departing the hub airport
// whose route passes through the via airport. The concept needs two
// constants (hub and via), which is why the paper's No-const baseline
// scores 0 on FLT while Manual and AutoBias reach F-measure 1 (Table 5).
func FLT(cfg Config) *Dataset { return mustGenerate("flt", cfg) }

func generateFLT(cfg Config, mk SinkFactory) (*Dataset, error) {
	cfg = cfg.Normalized()
	rng := rand.New(rand.NewSource(cfg.Seed + 4))

	nFlight := cfg.scaled(2000, 300)
	nAirport := cfg.scaled(60, 20)
	nPos := cfg.scaled(150, 40)
	nNeg := 3 * nPos // the paper's FLT has a 1:3 ratio (200/600)

	s := db.NewSchema()
	s.MustAdd("airport", "code", "region")
	s.MustAdd("flight", "fid", "src", "dst")
	s.MustAdd("leg", "fid", "loc", "seq")
	sink, err := mk(s)
	if err != nil {
		return nil, err
	}
	d := newDedupSink(sink)

	regions := []string{"west", "east", "central", "south"}
	airports := make([]string, nAirport)
	for i := range airports {
		airports[i] = id("apt", i)
		d.MustInsert("airport", airports[i], pick(rng, regions))
	}
	hub, via := airports[0], airports[1]
	seqs := []string{"seq_1", "seq_2", "seq_3", "seq_4"}

	isPos := func(i int) bool { return i < nPos }
	var pos, neg []logic.Literal
	for i := 0; i < nFlight; i++ {
		fid := id("flt", i)
		src := pick(rng, airports)
		dst := pick(rng, airports)
		stops := make([]string, 1+rng.Intn(3))
		for k := range stops {
			stops[k] = pick(rng, airports)
		}
		switch {
		case isPos(i):
			// Positive: departs the hub, passes through via.
			src = hub
			stops[rng.Intn(len(stops))] = via
		case i < nPos+nNeg:
			// Negative: must miss at least one conjunct. Half depart the
			// hub but avoid via (hard negatives); half pass via from a
			// different source.
			if i%2 == 0 {
				src = hub
				for k := range stops {
					if stops[k] == via {
						stops[k] = airports[2+rng.Intn(nAirport-2)]
					}
				}
			} else {
				for src == hub {
					src = pick(rng, airports)
				}
				stops[rng.Intn(len(stops))] = via
			}
		default:
			// Background traffic: anything that is not accidentally a
			// positive.
			if src == hub {
				for k := range stops {
					if stops[k] == via {
						stops[k] = airports[2+rng.Intn(nAirport-2)]
					}
				}
			}
		}
		d.MustInsert("flight", fid, src, dst)
		for k, loc := range stops {
			d.MustInsert("leg", fid, loc, seqs[k])
		}
		if isPos(i) {
			pos = append(pos, example("throughLoc", fid))
		} else if i < nPos+nNeg {
			neg = append(neg, example("throughLoc", fid))
		}
	}

	return &Dataset{
		Name:           "flt",
		Target:         "throughLoc",
		TargetAttrs:    []string{"fid"},
		Pos:            pos,
		Neg:            neg,
		Manual:         fltManualBias(hub, via),
		TrueDefinition: "throughLoc(F) :- flight(F," + hub + ",D), leg(F," + via + ",S).",
	}, nil
}

// fltManualBias is the expert bias for FLT: 18 definitions (§6.1). The
// expert knew the hub/via structure mattered, hence the constant modes
// on flight[src] and leg[loc].
func fltManualBias(hub, via string) *bias.Bias {
	return bias.MustParse(`
		% predicate definitions (4)
		throughLoc(Tf)
		airport(Ta,Tr)
		flight(Tf,Ta,Ta)
		leg(Tf,Ta,Ts)
		% mode definitions (14)
		airport(+,-)
		airport(+,#)
		flight(+,-,-)
		flight(+,#,-)
		flight(+,-,#)
		flight(+,#,#)
		flight(-,+,-)
		flight(-,-,+)
		leg(+,-,-)
		leg(+,#,-)
		leg(+,-,#)
		leg(+,#,#)
		leg(-,+,-)
		leg(-,-,+)
	`)
}
