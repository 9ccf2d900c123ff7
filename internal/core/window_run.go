package core

import (
	"context"

	"repro/internal/cpumodel"
	"repro/internal/mem"
	"repro/internal/trace"
)

// RunWindowedContext is RunContext with an exactly-placed observation
// hook: observe receives the profiler's live Snapshot at every
// windowAccesses-access boundary of the stream, from the driving
// goroutine, between Execute batches — the one place Snapshot is legal.
// Batches are split precisely at boundaries, which is free of result
// skew: Execute is batch-split invariant, so the final lifetime Result
// is bit-identical to RunContext's on the same stream and config no
// matter how many windows were observed. observe's argument is a fresh
// Snapshot the callback owns.
//
// windowAccesses == 0 or a nil observe degrades to plain RunContext.
// A boundary landing exactly on the end of the stream is observed
// before the final Result is built.
func (p *Profiler) RunWindowedContext(ctx context.Context, r trace.Reader, costs cpumodel.Costs, windowAccesses uint64, observe func(*Result)) (*Result, error) {
	if windowAccesses == 0 || observe == nil {
		return p.RunContext(ctx, r, costs)
	}
	m := p.NewMachine(costs)
	var sinceObs uint64
	err := trace.EachBatch(ctx, r, func(batch []mem.Access) {
		for len(batch) > 0 {
			k := uint64(len(batch))
			if room := windowAccesses - sinceObs; k > room {
				k = room
			}
			m.Execute(batch[:k])
			batch = batch[k:]
			sinceObs += k
			if sinceObs == windowAccesses {
				observe(p.Snapshot())
				sinceObs = 0
			}
		}
	})
	if err != nil {
		return nil, err
	}
	m.Finish()
	return p.Result(), nil
}
