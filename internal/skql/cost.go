package skql

import (
	"math"
	"time"

	"spatialkeyword/internal/storage"
)

// CostInputs is everything the cost model needs, all of it free at
// plan time: corpus size, keyword document frequencies (from the
// target's corpus statistics) and the tree's height. This is the one
// cost model in the repository.
type CostInputs struct {
	// NumObjects is the corpus size N.
	NumObjects int
	// DocFreq returns the document frequency of a normalized term.
	DocFreq func(term string) int
	// TreeHeight is the R-Tree height. Zero means an estimate from
	// NumObjects and treeFanout.
	TreeHeight int
}

// The layout the estimates assume. Nothing ever needed other values, so
// they are constants, not inputs.
const (
	// postingsPerBlock is how many postings fit in one block
	// (varint-delta encoded ≈ 2 bytes each at 4 KB).
	postingsPerBlock = 2048.0
	// blocksPerObject is the cost of loading one object.
	blocksPerObject = 1.0
	// treeFanout is the R-Tree's maximum entries per node.
	treeFanout = 64.0
)

// sigFalsePositiveRate is the modeled probability that a non-matching
// entry still passes the signature test and is loaded then discarded.
// Signatures prune for free (the node carrying them is read anyway),
// so the IR²-Tree loads matches plus this fraction of the rest — the
// asymmetry against the plain R-Tree scan, which loads every entry it
// examines. A flat 20% is the small-signature (8-byte) regime of the
// paper's Restaurants setup; larger signatures only widen the gap.
const sigFalsePositiveRate = 0.2

func (in CostInputs) height() float64 {
	if in.TreeHeight > 0 {
		return float64(in.TreeHeight)
	}
	n := math.Max(2, float64(in.NumObjects))
	return math.Max(1, math.Ceil(math.Log(n)/math.Log(treeFanout)))
}

// TermSelectivity returns df/N for one term under the independence
// assumption, clamped to [0, 1].
func (in CostInputs) TermSelectivity(term string) float64 {
	if in.NumObjects <= 0 {
		return 0
	}
	s := float64(in.DocFreq(term)) / float64(in.NumObjects)
	return math.Min(1, math.Max(0, s))
}

// conjunction folds the shared per-keyword loop: the smallest document
// frequency, the product selectivity, and total posting-list blocks.
// An empty conjunction matches everything.
func (in CostInputs) conjunction(terms []string) (minDF int, sel float64, postingBlocks float64) {
	n := in.NumObjects
	minDF = n
	sel = 1.0
	for _, t := range terms {
		df := in.DocFreq(t)
		if df < minDF {
			minDF = df
		}
		if n > 0 {
			sel *= float64(df) / float64(n)
		}
		postingBlocks += math.Ceil(float64(df) / postingsPerBlock)
	}
	return minDF, sel, postingBlocks
}

// PathEstimate is the cost model's verdict for one physical operator.
type PathEstimate struct {
	// Blocks is the estimated block-access cost.
	Blocks float64
	// Rows is the estimated number of rows the operator emits.
	Rows float64
	// MinDF is the smallest document frequency among pushed terms.
	MinDF int
	// Selectivity is the estimated fraction of the corpus matching
	// the operator's full predicate (pushed terms and residual).
	Selectivity float64
}

// ModeledTime converts an estimated block count into modeled disk
// time under storage.DefaultCostModel, charging every estimated access
// at the random rate — plan estimates cannot know which accesses will
// coalesce sequentially.
func ModeledTime(blocks float64) time.Duration {
	return time.Duration(math.Round(blocks)) * storage.DefaultCostModel().RandomAccess
}

// EstimateIIO costs the Inverted Index Only path for a conjunction:
// read every keyword's posting list, then load every object of the
// intersection (bounded above by the rarest list). The cost is
// independent of k and of any residual filter, which is applied to
// already-loaded objects for free.
func (in CostInputs) EstimateIIO(pos []string, residualSel float64) PathEstimate {
	minDF, sel, postingBlocks := in.conjunction(pos)
	expected := sel * float64(in.NumObjects)
	candidates := math.Min(expected, float64(minDF))
	return PathEstimate{
		Blocks:      postingBlocks + candidates*blocksPerObject,
		Rows:        expected * clamp01(residualSel),
		MinDF:       minDF,
		Selectivity: sel * clamp01(residualSel),
	}
}

// EstimateIR2 costs the IR²-Tree distance-first path: walk entries in
// distance order until k pass both the pushed conjunction and the
// residual filter. Signatures reject non-matching entries before the
// object load, so only matches and signature false positives are
// loaded; residualSel < 1 inflates how deep the walk must go.
func (in CostInputs) EstimateIR2(k int, pos []string, residualSel float64) PathEstimate {
	minDF, sel, _ := in.conjunction(pos)
	n := float64(in.NumObjects)
	fullSel := sel * clamp01(residualSel)
	var scanned float64
	if fullSel > 0 {
		scanned = math.Min(float64(k)/fullSel, n)
	} else {
		scanned = n // nothing matches: worst case, full traversal
	}
	loads := scanned * (fullSel + (1-fullSel)*sigFalsePositiveRate)
	nodeReads := scanned/treeFanout + in.height()
	return PathEstimate{
		Blocks:      loads*blocksPerObject + nodeReads,
		Rows:        math.Min(float64(k), fullSel*n),
		MinDF:       minDF,
		Selectivity: fullSel,
	}
}

// EstimateRTree costs the plain R-Tree filter-scan: walk objects in
// distance order loading every candidate (no signature pruning) until
// k pass the residual boolean filter. With ubiquitous keywords this
// wins because it loads barely more objects than it returns and skips
// all posting I/O — the paper's other extreme (§6.B).
func (in CostInputs) EstimateRTree(k int, fullSel float64) PathEstimate {
	n := float64(in.NumObjects)
	fullSel = clamp01(fullSel)
	var scanned float64
	if fullSel > 0 {
		scanned = math.Min(float64(k)/fullSel, n)
	} else {
		scanned = n
	}
	nodeReads := scanned/treeFanout + in.height()
	return PathEstimate{
		Blocks:      scanned*blocksPerObject + nodeReads,
		Rows:        math.Min(float64(k), fullSel*n),
		Selectivity: fullSel,
	}
}

// EstimateRankedScan costs the MIR²-Tree scored traversal for RANKED
// projections. The scored frontier visits roughly the objects holding
// any query term (union selectivity); each is loaded once.
func (in CostInputs) EstimateRankedScan(k int, pos []string, treeSel float64) PathEstimate {
	n := float64(in.NumObjects)
	miss := 1.0
	for _, t := range pos {
		miss *= 1 - in.TermSelectivity(t)
	}
	unionSel := 1 - miss
	scanned := math.Max(float64(k), unionSel*n)
	scanned = math.Min(scanned, n)
	nodeReads := scanned/treeFanout + in.height()
	return PathEstimate{
		Blocks:      scanned*blocksPerObject + nodeReads,
		Rows:        math.Min(float64(k), clamp01(treeSel)*n),
		Selectivity: clamp01(treeSel),
	}
}

// EstimateAreaNative costs the engine's native range scan (WithinArea
// / TopKArea) with a pushed conjunction. Without spatial histograms
// the rectangle is assumed to cover the data, making this an upper
// bound that still orders paths correctly by keyword selectivity.
func (in CostInputs) EstimateAreaNative(pos []string, residualSel float64) PathEstimate {
	minDF, sel, _ := in.conjunction(pos)
	n := float64(in.NumObjects)
	loads := (sel + (1-sel)*sigFalsePositiveRate) * n
	nodeReads := n/treeFanout + in.height()
	fullSel := sel * clamp01(residualSel)
	return PathEstimate{
		Blocks:      loads*blocksPerObject + nodeReads,
		Rows:        fullSel * n,
		MinDF:       minDF,
		Selectivity: fullSel,
	}
}

func clamp01(v float64) float64 {
	return math.Min(1, math.Max(0, v))
}
