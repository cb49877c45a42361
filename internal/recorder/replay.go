package recorder

import (
	"fmt"

	"cchunter/internal/auditor"
	"cchunter/internal/core"
	"cchunter/internal/stream"
)

// rebuild wires a fresh auditor exactly as a scenario run does: the
// flight's monitored burst kinds (bus and divider when the capture
// predates Meta.Kinds) at the paper Δt values plus the conflict-miss
// tracker front-end.
func rebuild(f Flight) (*auditor.Auditor, core.DetectorConfig, uint64, error) {
	aud, err := core.NewAuditor(f.Meta.QuantumCycles, f.Meta.Kinds...)
	if err != nil {
		return nil, core.DetectorConfig{}, 0, fmt.Errorf("recorder: building auditor: %w", err)
	}
	contexts := f.Meta.Contexts
	if contexts <= 0 {
		contexts = 8
	}
	cfg := core.DefaultDetectorConfig(f.Meta.QuantumCycles, contexts)
	cfg.ObservationDivisor = f.Meta.ObservationDivisor
	end := f.Meta.EndCycle
	if end == 0 && len(f.Events) > 0 {
		end = f.Events[len(f.Events)-1].Cycle + 1
	}
	return aud, cfg, end, nil
}

// Replay feeds a flight's events through a freshly built batch
// pipeline and renders the verdict at the flight's end cycle. Replays
// are deterministic: the same flight always produces the same report.
// A truncated flight replays the captured suffix only, so its verdict
// can differ from the live run's — the flight says so via Truncated.
func Replay(f Flight) (core.Report, error) {
	aud, cfg, end, err := rebuild(f)
	if err != nil {
		return core.Report{}, err
	}
	aud.OnEvents(f.Events)
	det := core.NewDetector(aud, cfg)
	rep := det.Analyze(end)
	det.Release()
	aud.Release()
	return rep, nil
}

// ReplayStreaming replays the flight through the streaming detector
// instead, event by event, exercising the incremental path end to end
// (ring maintenance, window closing, CUSUM onset tracking). On a
// complete flight the verdict fields match Replay's byte for byte;
// the streaming report additionally carries onset info.
func ReplayStreaming(f Flight) (core.Report, error) {
	aud, cfg, end, err := rebuild(f)
	if err != nil {
		return core.Report{}, err
	}
	det := stream.New(aud, stream.Config{Detector: cfg})
	// The live run's ingest queue shed these events before anything —
	// detector or recorder — saw them. Fold the count into the replayed
	// verdict's Streaming block so live and replayed reports agree on
	// how much evidence the verdict rests on.
	det.SetShed(f.Meta.EventsShed)
	det.OnEvents(f.Events)
	rep := det.Finalize(end)
	aud.Release()
	return rep, nil
}
