package fleet

import (
	"cchunter/internal/core"
	"cchunter/internal/stream"
	"cchunter/internal/trace"
)

// AnalyzeTrain pushes one recorded event train through the exact
// pipeline a fleet shard runs — bounded ingest queue, streaming
// detector, epoch finalize — and returns the verdict. The queue is
// sized so nothing can shed, which makes the result a pure function of
// the train: byte-identical to a solo streaming run over the same
// events, and (verdict fields) to the batch detector pinned by the
// golden corpus. The root-package equivalence test holds the fleet
// path to that.
// kinds selects the monitored burst events (empty = bus + divider).
func AnalyzeTrain(events []trace.Event, quantum, end uint64, kinds ...trace.Kind) (core.Report, error) {
	aud, det, err := buildDetector(quantum, kinds...)
	if err != nil {
		return core.Report{}, err
	}
	defer aud.Release()
	batches := len(events)/trace.DefaultBatchSize + 2
	in := stream.NewIngest(det, batches, nil)
	for i := 0; i < len(events); i += trace.DefaultBatchSize {
		j := i + trace.DefaultBatchSize
		if j > len(events) {
			j = len(events)
		}
		in.OnEvents(events[i:j])
	}
	in.Close()
	if shed := in.Shed(); shed > 0 {
		det.SetShed(shed)
	}
	if end == 0 && len(events) > 0 {
		end = events[len(events)-1].Cycle + 1
	}
	return det.Finalize(end), nil
}
