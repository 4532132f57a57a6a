package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	autobias "repro"
)

const shardCount = 2

// fleet is an in-process shard fleet: shardCount workers of one replica
// each behind loopback HTTP servers, every handler wrapped so that the
// time the servers spend answering is measured from outside them.
type fleet struct {
	servers    []*httptest.Server
	urls       []string
	collectors []*autobias.MetricsCollector
	busyNS     atomic.Int64
}

// startFleet builds the workers from the same task and options the
// coordinating run uses, as the fingerprint on every RPC requires.
func (r *run) startFleet(d *dataset, opts autobias.Options, traced bool) (*fleet, error) {
	defer r.tr.begin("shard.fleet_start_s")()
	f := &fleet{}
	for i := 0; i < shardCount; i++ {
		wopts := opts
		if traced {
			wopts.Collector = autobias.NewMetricsCollector()
			f.collectors = append(f.collectors, wopts.Collector)
		}
		w, err := autobias.NewShardWorker(d.train, wopts, fmt.Sprintf("%s-s%d", d.name, i), autobias.ShardWorkerOptions{})
		if err != nil {
			f.close()
			return nil, err
		}
		inner := w.Handler()
		s := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
			t0 := time.Now()
			inner.ServeHTTP(rw, req)
			f.busyNS.Add(int64(time.Since(t0)))
		}))
		f.servers = append(f.servers, s)
		f.urls = append(f.urls, s.URL)
	}
	return f, nil
}

func (f *fleet) close() {
	for _, s := range f.servers {
		s.Close()
	}
}

// runSharded is sharded-learn: each dataset is learned in passes through
// Options.Shard against a fresh fleet, and once in one process with pure
// ground-BC provenance, the reference the sharded theory must equal.
// Local compute is the same in both, so the difference is wire and wait.
// The fleet is restarted for every cell: a warm worker cache would make a
// later pass cheaper than the first.
func (r *run) runSharded() error {
	names := []string{"hiv", "flt"}
	if r.cfg.quick {
		names = []string{"uw"}
	}
	opts := baseOptions()
	opts.Method = autobias.MethodAutoBias
	opts.Workers = 1

	var data []*dataset
	if err := r.timeSetup(func() error {
		data = data[:0]
		for _, name := range names {
			d, err := r.loadDataset(name, r.scale(), freshPerCell)
			if err != nil {
				return err
			}
			f, err := r.startFleet(d, opts, false)
			if err != nil {
				return err
			}
			f.close()
			data = append(data, d)
		}
		return nil
	}); err != nil {
		return err
	}

	var cells []cell
	for _, d := range data {
		r.layer["db.tuples"] += float64(d.ds.DB.TotalTuples())
		cells = append(cells, cell{data: d, arm: "sharded", opts: opts})
	}

	var busyS float64
	first, last, _ := r.learnPasses(cells, func(c cell, traced bool) (outcome, bool) {
		f, err := r.startFleet(c.data, c.opts, traced)
		if !r.op("start fleet "+c.label(), err) {
			return outcome{}, false
		}
		defer f.close()
		c.opts.Shard = &autobias.ShardOptions{Workers: f.urls}
		o, ok := r.runCell(c, traced)
		if !ok {
			return o, false
		}
		rep := o.res.Report
		r.check(c.label()+" no retry or fallback",
			rep.Count(autobias.DegradationShardRetried)+rep.Count(autobias.DegradationShardFellBackLocal) == 0,
			"the fleet lost RPCs: "+rep.Summary())
		if traced {
			busyS += float64(f.busyNS.Load()) / 1e9
			for _, mc := range f.collectors {
				r.addCollector(mc.Snapshot(), true)
			}
		}
		return o, true
	})

	// The reference is the control: the same learning with no fleet. Every
	// pass has already been checked against the first.
	pure := opts
	pure.PureGroundBCs = true
	for i, c := range cells {
		ref, ok := r.runCell(cell{data: c.data, arm: "local-pure", opts: pure}, false)
		if ok {
			r.sameOutputs(c.label()+" vs local-pure", first[i], ref)
			r.layer["learn.local_pure_s"] += ref.learnS
		}
	}
	if local := r.layer["learn.local_pure_s"]; local > 0 {
		r.layer["shard.overhead_ratio"] = r.layer["learn.sharded_s"] / local
	}
	if !r.cfg.trace {
		return nil
	}
	// Busy time is the traced pass's, so the wait is taken from that pass.
	tracedS := 0.0
	for _, o := range last {
		tracedS += o.learnS
	}
	r.layer["shard.worker_busy_s"] = busyS
	r.layer["shard.wait_s"] = tracedS - busyS/shardCount
	r.probeCells(cells, last)
	return nil
}
