package coherence

import (
	"repro/internal/dense"
	"repro/internal/mem"
	"repro/internal/trace"
)

// OTF is the on-the-fly schedule: every store's invalidations are performed
// immediately, before the next trace reference. Its miss rate is "the miss
// rate usually derived when using trace-driven simulations" (§4), and its
// miss decomposition is exactly the paper's Appendix A classification.
type OTF struct {
	base
	present *dense.Map[uint64]
}

// NewOTF returns an on-the-fly simulator.
func NewOTF(procs int, g mem.Geometry) *OTF {
	return &OTF{base: newBase("OTF", procs, g), present: dense.NewMap[uint64](0)}
}

// ref replays the current reference. Synchronization references are free
// under OTF: there is nothing to delay.
func (s *OTF) ref(r trace.Ref) {
	if !r.Kind.IsData() {
		return
	}
	s.dataRefs++
	p := int(r.Proc)
	blk := s.g.BlockOf(r.Addr)
	bit := uint64(1) << uint(p)

	present, _ := s.present.GetOrPut(uint64(blk))
	missed := *present&bit == 0
	if missed {
		s.miss(p, r.Addr)
		*present |= bit
	}
	s.life.Access(p, r.Addr)

	if r.Kind == trace.Store {
		others := *present &^ bit
		if others != 0 {
			if !missed {
				s.upgrades++ // ownership taken without a miss
			}
			forEachProc(others, func(q int) { s.invalidate(q, blk) })
			*present = bit
		}
		s.life.RecordStore(r.Addr)
	}
}

// Ref implements trace.Consumer.
func (s *OTF) Ref(r trace.Ref) { s.RefBatch(s.single(r)) }

// RefBatch implements trace.BatchConsumer.
func (s *OTF) RefBatch(refs []trace.Ref) {
	s.life.Begin(refs)
	for _, r := range refs {
		s.ref(r)
		s.life.Next()
	}
}

// Finish implements Simulator.
func (s *OTF) Finish() Result { return s.result() }
