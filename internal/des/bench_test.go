package des

import "testing"

// BenchmarkProcSwitch is the cost of one proc context switch: two procs
// ping-pong Sleep(0), so every Sleep is one scheduler→proc→scheduler round
// trip and ns/op is ns per switch.
func BenchmarkProcSwitch(b *testing.B) {
	s := New()
	per := b.N / 2
	for i := 0; i < 2; i++ {
		s.Spawn("p", func(p *Proc) {
			for k := 0; k < per; k++ {
				p.Sleep(0)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEventQueue is the queue alone under the load of a 128-rank
// simnet point: 3,000 events always pending, each firing re-arms itself
// later, and two firings in five also move another pending event earlier
// — a cancel and a re-schedule, as fluid's rebalance does when a flow's
// neighbour leaves. ns/op is per fired event.
func BenchmarkEventQueue(b *testing.B) {
	const pending = 3000
	s := New()
	rng := uint64(88172645463325252)
	next := func() uint64 { // xorshift64: deterministic, allocation-free
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	evs := make([]*Event, pending)
	fns := make([]func(), pending)
	for i := range evs {
		fns[i] = func() {
			evs[i] = s.After(float64(next()%1000+1)*1e-6, fns[i])
			if next()%5 < 2 {
				k := next() % pending
				evs[k].Cancel()
				evs[k] = s.After(float64(next()%500)*1e-6, fns[k])
			}
		}
		evs[i] = s.After(float64(next()%1000)*1e-6, fns[i])
	}
	b.ReportAllocs()
	for b.Loop() {
		s.Step()
	}
}
