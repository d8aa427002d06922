package engine

import (
	"fmt"

	"demaq/internal/msgstore"
	"demaq/internal/qdl"
	"demaq/internal/rule"
)

// Reload replaces the running application program — the dynamic queue and
// rule evolution the paper lists as future work (Sec. 5: "each time an
// application evolves, the processing system has to be shut down and
// restarted. Clearly, this is unacceptable for zero-downtime
// environments"). This implementation is deliberately guarded:
//
//   - the engine must be idle (no message mid-processing): callers Drain
//     first; Reload fails otherwise rather than risking rules changing
//     under an in-flight pending update list;
//   - queues may be added but not removed, and an existing queue's kind
//     and mode are immutable (messages persist under the old contract);
//   - gateway and echo queues cannot be added at runtime (transports and
//     endpoint subscriptions are wired at Start);
//   - rules, properties, slicings and collections may change freely: slice
//     membership is read off the store under the new definitions (a new
//     slicing sees the messages enqueued before it), and the persisted reset
//     watermarks are replayed.
func (e *Engine) Reload(app *qdl.Application) error {
	prog, err := rule.Compile(app, e.cfg.Rules)
	if err != nil {
		return err
	}
	for _, q := range app.Queues {
		if q.Kind == qdl.KindEcho || q.Kind == qdl.KindOutgoingGateway {
			if plan := prog.QueuePlans[q.Name]; plan != nil && len(plan.Rules) > 0 {
				return fmt.Errorf("engine: rules cannot be attached to %s queue %q", q.Kind, q.Name)
			}
		}
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.sched.Idle() {
		return fmt.Errorf("engine: reload requires an idle engine (drain first)")
	}

	// Validate queue evolution.
	oldDecls := map[string]*qdl.QueueDecl{}
	for _, q := range e.prog.App.Queues {
		oldDecls[q.Name] = q
	}
	for _, q := range app.Queues {
		old, exists := oldDecls[q.Name]
		if !exists {
			if q.Kind != qdl.KindBasic {
				return fmt.Errorf("engine: cannot add %s queue %q at runtime", q.Kind, q.Name)
			}
			continue
		}
		if old.Kind != q.Kind {
			return fmt.Errorf("engine: queue %q cannot change kind (%s → %s)", q.Name, old.Kind, q.Kind)
		}
		if old.Persistent != q.Persistent {
			return fmt.Errorf("engine: queue %q cannot change mode", q.Name)
		}
	}
	for name := range oldDecls {
		found := false
		for _, q := range app.Queues {
			if q.Name == name {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("engine: queue %q cannot be removed at runtime", name)
		}
	}

	// Apply: new queues, collections, program swap, reset replay.
	for _, q := range app.Queues {
		mode := msgstore.Persistent
		if !q.Persistent {
			mode = msgstore.Transient
		}
		if _, err := e.ms.CreateQueue(q.Name, mode, q.Priority); err != nil {
			return err
		}
		e.sched.DeclareQueue(q.Name, q.Priority)
	}
	for _, c := range app.Collections {
		if err := e.ms.CreateCollection(c.Name); err != nil {
			return err
		}
	}
	e.prog = prog
	e.probeFloor = e.ms.NextID()
	e.schemas = nil
	decls := make(map[string]*qdl.QueueDecl, len(app.Queues))
	for _, q := range app.Queues {
		decls[q.Name] = q
	}
	e.decls = decls
	// Recompute the per-queue path projections under the new rules. Records
	// already stored under an old projection carry its fingerprint; a
	// mismatch at read time falls back to full materialization, so no
	// stored message ever loses data to a rule change.
	e.projs = e.computeProjections(prog, app)

	sm, err := e.openSlices(prog)
	if err != nil {
		return err
	}
	e.slices = sm
	e.log.Info("application reloaded",
		"queues", len(app.Queues), "rules", len(app.Rules), "slicings", len(app.Slicings))
	return nil
}
