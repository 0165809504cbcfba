package service

import (
	"context"
	"fmt"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Bootstrap seeds the service's telemetry store from a simulation run before
// any listener is up — a tenant created with a spec boots with a learnable
// history instead of waiting for telemetry adapters to push one. It enters
// through the same ingest path as POST /v1/telemetry.
func (s *Server) Bootstrap(run *sim.Run) error {
	if run == nil || len(run.Windows) == 0 {
		return fmt.Errorf("bootstrap: empty run")
	}
	_, span := s.opts.Tracer.Start(context.Background(), "service.ingest")
	span.SetWindows(len(run.Windows))
	defer span.End()
	in := telemetry.NewServer(run.WindowSeconds)
	in.RecordRun(run)
	if _, err := s.ingest(in); err != nil {
		return fmt.Errorf("bootstrap: %w", err)
	}
	return nil
}
