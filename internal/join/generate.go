package join

// Tuple-level workload generators mirroring the paper's TPC-H setup at
// arbitrary (usually reduced) scale: CUSTOMER with unique custkeys,
// ORDERS referencing them uniformly, optional skew re-keying a fraction of
// ORDERS to the hot key, and zipf-biased home-node assignment so the chunk
// matrix the engine derives matches the chunk-level generator's shape.

import (
	"math"

	"ccf/internal/rng"
)

// newGen seeds the relation generator; seed 0, whose xorshift64* orbit is
// all zeros, is remapped to a fixed constant.
func newGen(seed uint64) *rng.Gen {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	g := rng.New(seed)
	return &g
}

// GenConfig parameterises relation generation.
type GenConfig struct {
	Customers     int64   // |CUSTOMER|; keys 1..Customers
	OrdersPerCust int64   // |ORDERS| = Customers × OrdersPerCust (TPC-H ≈ 10)
	PayloadBytes  int64   // per-tuple payload (paper: 1000)
	SkewFrac      float64 // fraction of ORDERS re-keyed to key 1
	// KeyZipf, when positive, draws ORDERS custkeys from a Zipf(KeyZipf)
	// popularity distribution over the customers instead of uniformly —
	// the natural generalization of the paper's single-hot-key skew, where
	// several heavy hitters emerge and partial duplication must handle all
	// of them. Composable with SkewFrac.
	KeyZipf float64
	Seed    uint64
}

// GenerateRelations materialises CUSTOMER and ORDERS per the paper's recipe.
func GenerateRelations(cfg GenConfig) (customer, orders *Relation) {
	if cfg.PayloadBytes <= 0 {
		cfg.PayloadBytes = 1000
	}
	g := newGen(cfg.Seed)
	customer = &Relation{Name: "CUSTOMER", Tuples: make([]Tuple, cfg.Customers)}
	for i := int64(0); i < cfg.Customers; i++ {
		customer.Tuples[i] = Tuple{Key: i + 1, Payload: cfg.PayloadBytes}
	}
	var drawKey func() int64
	if cfg.KeyZipf > 0 {
		drawKey = zipfKeyDrawer(g, cfg.Customers, cfg.KeyZipf, 4096)
	} else {
		drawKey = func() int64 { return int64(g.Intn(int(cfg.Customers))) + 1 }
	}
	nOrders := cfg.Customers * cfg.OrdersPerCust
	orders = &Relation{Name: "ORDERS", Tuples: make([]Tuple, nOrders)}
	for i := int64(0); i < nOrders; i++ {
		key := drawKey()
		if cfg.SkewFrac > 0 && g.Float64() < cfg.SkewFrac {
			key = 1
		}
		orders.Tuples[i] = Tuple{Key: key, Payload: cfg.PayloadBytes}
	}
	return customer, orders
}

// zipfKeyDrawer samples keys 1..n with popularity ∝ rank^−theta via
// inversion on the cumulative weights (O(log n) per draw). For very large
// key spaces it buckets the tail: exact weights for the first maxHead ranks,
// a single uniform tail beyond (the tail carries little mass for
// theta ≥ ~0.5 and heavy hitters are what matter).
func zipfKeyDrawer(g *rng.Gen, n int64, theta float64, maxHead int64) func() int64 {
	head := min(n, maxHead)
	cum := make([]float64, head)
	var z float64
	for r := int64(0); r < head; r++ {
		z += math.Pow(float64(r+1), -theta)
	}
	tailMass := 0.0
	if n > head {
		// Integral approximation of the tail Σ_{r=head+1..n} r^−θ.
		if theta == 1 {
			tailMass = math.Log(float64(n)/float64(head)) / z
		} else {
			tailMass = (math.Pow(float64(n), 1-theta) - math.Pow(float64(head), 1-theta)) / ((1 - theta) * z)
		}
		if tailMass < 0 {
			tailMass = 0
		}
		z *= 1 + tailMass
	}
	acc := 0.0
	for r := int64(0); r < head; r++ {
		acc += math.Pow(float64(r+1), -theta) / z
		cum[r] = acc
	}
	return func() int64 {
		u := g.Float64()
		if u >= acc && n > head {
			// Uniform over the tail ranks.
			return head + 1 + int64(g.Intn(int(n-head)))
		}
		lo, hi := int64(0), head-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo + 1
	}
}

// ZipfPlacer returns a placement function assigning tuples to home nodes
// with Zipf(theta) popularity over node ranks (node 0 most popular),
// reproducing the chunk-level generator's rank-aligned locality at tuple
// granularity. The returned closure is deterministic per seed.
func ZipfPlacer(n int, theta float64, seed uint64) func(i int, t Tuple) int {
	draw := zipfKeyDrawer(newGen(seed), int64(n), theta, int64(n))
	return func(int, Tuple) int { return int(draw()) - 1 }
}
