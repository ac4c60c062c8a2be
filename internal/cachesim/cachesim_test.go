package cachesim

import (
	"testing"

	"repro/internal/genmat"
	"repro/internal/matrix"
)

func TestCacheGeometryValidation(t *testing.T) {
	if _, err := newCache(Config{SizeBytes: 0, Ways: 4, LineBytes: 64}, 1); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := newCache(Config{SizeBytes: 3000, Ways: 4, LineBytes: 64}, 1); err == nil {
		t.Error("non-power-of-two sets accepted")
	}
	if _, err := newCache(Config{SizeBytes: 2 << 20, Ways: 16, LineBytes: 64}, 1); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestSequentialStreamMissesOncePerLine(t *testing.T) {
	c, err := newCache(Config{SizeBytes: 1 << 16, Ways: 4, LineBytes: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 1024 sequential 8-byte loads = 8192 bytes = 128 lines.
	for i := 0; i < 1024; i++ {
		c.access(uint64(i)*8, 8, false, 0)
	}
	if got := c.fillBytes(0); got != 128*64 {
		t.Errorf("fills = %d bytes, want %d", got, 128*64)
	}
	if c.writebackBytes(0) != 0 {
		t.Error("read-only stream produced write-backs")
	}
}

func TestRepeatedAccessHitsInCache(t *testing.T) {
	c, _ := newCache(Config{SizeBytes: 1 << 16, Ways: 4, LineBytes: 64}, 1)
	for rep := 0; rep < 10; rep++ {
		for i := 0; i < 64; i++ { // 512 bytes: fits easily
			c.access(uint64(i)*8, 8, false, 0)
		}
	}
	if got := c.fillBytes(0); got != 8*64 {
		t.Errorf("fills = %d, want %d (compulsory only)", got, 8*64)
	}
}

func TestCapacityMissesWhenWorkingSetExceedsCache(t *testing.T) {
	cfg := Config{SizeBytes: 1 << 12, Ways: 4, LineBytes: 64} // 4 KB
	c, _ := newCache(cfg, 1)
	// Working set 8 KB, swept twice: second sweep misses again (LRU).
	for rep := 0; rep < 2; rep++ {
		for i := 0; i < 1024; i++ {
			c.access(uint64(i)*8, 8, false, 0)
		}
	}
	if got := c.fillBytes(0); got != 2*128*64 {
		t.Errorf("fills = %d, want %d (every line misses twice)", got, 2*128*64)
	}
}

func TestWriteAllocateAndWriteback(t *testing.T) {
	cfg := Config{SizeBytes: 1 << 12, Ways: 4, LineBytes: 64}
	c, _ := newCache(cfg, 1)
	// Write 8 KB (128 lines through a 4 KB cache): every line is filled
	// (write-allocate) and 64 of them must be written back upon eviction;
	// the rest stay dirty in the cache.
	for i := 0; i < 1024; i++ {
		c.access(uint64(i)*8, 8, true, 0)
	}
	if got := c.fillBytes(0); got != 128*64 {
		t.Errorf("fills = %d, want %d (write-allocate)", got, 128*64)
	}
	if got := c.writebackBytes(0); got != 64*64 {
		t.Errorf("write-backs = %d, want %d", got, 64*64)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// Direct-ish cache: 2 ways, 1 set → 2 lines total.
	cfg := Config{SizeBytes: 128, Ways: 2, LineBytes: 64}
	c, _ := newCache(cfg, 1)
	c.access(0*64, 8, false, 0) // A
	c.access(1*64, 8, false, 0) // B
	c.access(0*64, 8, false, 0) // touch A (B is now LRU)
	c.access(2*64, 8, false, 0) // C evicts B
	before := c.fillBytes(0)
	c.access(0*64, 8, false, 0) // A must still hit
	if c.fillBytes(0) != before {
		t.Error("LRU evicted the recently used line")
	}
	c.access(1*64, 8, false, 0) // B was evicted → miss
	if c.fillBytes(0) != before+64 {
		t.Error("expected miss on evicted line")
	}
}

func TestStraddlingAccessTouchesTwoLines(t *testing.T) {
	c, _ := newCache(Config{SizeBytes: 1 << 12, Ways: 4, LineBytes: 64}, 1)
	c.access(60, 8, false, 0) // crosses the line boundary at 64
	if got := c.fillBytes(0); got != 128 {
		t.Errorf("fills = %d, want 128 (two lines)", got)
	}
}

func TestSpMVTrafficTinyMatrixFitsInCache(t *testing.T) {
	// With everything cache-resident, κ = 0 and each array moves its
	// compulsory footprint (rounded to lines).
	g, _ := genmat.NewRandomBand(genmat.RandomBandConfig{N: 256, Bandwidth: 16, PerRow: 4, Seed: 3})
	a := matrix.Materialize(g)
	tr, err := SpMVTraffic(a, Config{SizeBytes: 1 << 20, Ways: 16, LineBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Kappa != 0 {
		t.Errorf("κ = %g for cache-resident matrix, want 0", tr.Kappa)
	}
	if tr.RHSLoadFactor > 1.1 {
		t.Errorf("RHS load factor %.2f, want ≈ 1", tr.RHSLoadFactor)
	}
	// val fills ≈ 8 bytes per nnz (line-rounded).
	if tr.ValBytes < tr.Nnz*8 || tr.ValBytes > tr.Nnz*8+int64(a.NumRows*64) {
		t.Errorf("val traffic %d implausible for %d nnz", tr.ValBytes, tr.Nnz)
	}
}

func TestSpMVKappaGrowsWhenCacheShrinks(t *testing.T) {
	// A band matrix too wide for a tiny cache: κ must rise as capacity
	// falls.
	g, _ := genmat.NewRandomBand(genmat.RandomBandConfig{N: 20000, Bandwidth: 8000, PerRow: 8, Seed: 7})
	a := matrix.Materialize(g)
	big, err := SpMVTraffic(a, Config{SizeBytes: 1 << 22, Ways: 16, LineBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	small, err := SpMVTraffic(a, Config{SizeBytes: 1 << 14, Ways: 16, LineBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if small.Kappa <= big.Kappa {
		t.Errorf("κ(small cache)=%.3f not above κ(big cache)=%.3f", small.Kappa, big.Kappa)
	}
	if big.Kappa < 0 {
		t.Errorf("negative κ %.3f", big.Kappa)
	}
}

// TestHolsteinOrderingKappa reproduces the §2 comparison in miniature:
// the HMEp ordering (phononic elements contiguous) produces more excess
// B(:) traffic than the reference HMeP ordering (electronic contiguous) —
// the paper measures κ = 3.79 vs 2.5.
func TestHolsteinOrderingKappa(t *testing.T) {
	kappaOf := func(o genmat.Ordering) float64 {
		h, err := genmat.NewHolstein(genmat.HolsteinConfig{
			Sites: 6, NumUp: 3, NumDown: 3, MaxPhonons: 4,
			T: 1, U: 4, Omega: 1, G: 1, Ordering: o,
		})
		if err != nil {
			t.Fatal(err)
		}
		a := matrix.Materialize(h)
		// Cache deliberately much smaller than the RHS vector so capacity
		// misses appear, as on the real machines at full scale.
		tr, err := SpMVTraffic(a, Config{SizeBytes: 1 << 17, Ways: 16, LineBytes: 64})
		if err != nil {
			t.Fatal(err)
		}
		return tr.Kappa
	}
	hmEp := kappaOf(genmat.HMEp)
	hmeP := kappaOf(genmat.HMeP)
	if hmEp <= hmeP {
		t.Errorf("κ(HMEp)=%.3f not above κ(HMeP)=%.3f; paper: 3.79 vs 2.5", hmEp, hmeP)
	}
	// The excess-traffic ratio should be in the ballpark of the paper's
	// ≈ 50% increase (3.79/2.5 ≈ 1.5); accept a broad band at reduced scale.
	if r := hmEp / hmeP; r > 2.5 {
		t.Errorf("κ ratio %.2f implausibly large", r)
	}
}

func TestTrafficTotalsAddUp(t *testing.T) {
	g, _ := genmat.NewRandomBand(genmat.RandomBandConfig{N: 5000, Bandwidth: 1000, PerRow: 6, Seed: 9})
	a := matrix.Materialize(g)
	tr, err := SpMVTraffic(a, Config{SizeBytes: 2 << 20, Ways: 16, LineBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	sum := tr.ValBytes + tr.ColBytes + tr.RHSBytes + tr.ResultBytes + tr.RowPtrBytes
	if tr.TotalBytes != sum {
		t.Errorf("TotalBytes %d != sum %d", tr.TotalBytes, sum)
	}
	if tr.Nnz != a.Nnz() || tr.Rows != a.NumRows {
		t.Error("dimension bookkeeping wrong")
	}
}
