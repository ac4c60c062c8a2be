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
