// Package network provides the sensor-network substrate: node deployment
// (uniform random or grid, as the compared protocols require), the radio
// communication graph, sensing, and node-failure injection.
package network

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"isomap/internal/field"
	"isomap/internal/geom"
)

// NodeID identifies a node by its index in the network's node slice.
type NodeID int

// Node is one sensor node.
type Node struct {
	// ID is the node's index.
	ID NodeID
	// Pos is the node's position, assumed known to the node itself (the
	// paper allows GPS or any localization algorithm).
	Pos geom.Point
	// Value is the sensed attribute value, filled in by Sense.
	Value float64
	// Failed marks a dead node: it neither senses nor forwards.
	Failed bool
}

// Network is a deployed sensor field: node set plus the radio graph.
type Network struct {
	nodes     []Node
	radio     float64
	bounds    geom.Polygon
	neighbors [][]NodeID
}

// errors returned by deployment constructors.
var (
	ErrNoNodes   = errors.New("network: node count must be positive")
	ErrBadRadio  = errors.New("network: radio range must be positive")
	ErrBadBounds = errors.New("network: bounds must have positive area")
)

// DeployUniform places n nodes uniformly at random over the bounds of f and
// connects them with the given radio range. The deployment is deterministic
// in seed.
func DeployUniform(n int, f field.Field, radio float64, seed int64) (*Network, error) {
	if err := validate(n, radio, f); err != nil {
		return nil, err
	}
	x0, y0, x1, y1 := f.Bounds()
	rng := rand.New(rand.NewSource(seed))
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{
			ID: NodeID(i),
			Pos: geom.Point{
				X: x0 + rng.Float64()*(x1-x0),
				Y: y0 + rng.Float64()*(y1-y0),
			},
		}
	}
	return build(nodes, f, radio), nil
}

// DeployGrid places n nodes on a regular grid over the bounds of f — the
// deployment TinyDB, INLR and the data-suppression protocol require. The
// actual count is floor(sqrt(n))^2, the largest square grid not exceeding
// n nodes: a request of 2,500 yields exactly 50x50, while a request of
// 2,600 also yields 50x50 (51^2 = 2,601 > 2,600).
func DeployGrid(n int, f field.Field, radio float64) (*Network, error) {
	if err := validate(n, radio, f); err != nil {
		return nil, err
	}
	side := int(math.Sqrt(float64(n)))
	if side < 1 {
		side = 1
	}
	x0, y0, x1, y1 := f.Bounds()
	dx := (x1 - x0) / float64(side)
	dy := (y1 - y0) / float64(side)
	nodes := make([]Node, 0, side*side)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			nodes = append(nodes, Node{
				ID: NodeID(len(nodes)),
				Pos: geom.Point{
					X: x0 + (float64(c)+0.5)*dx,
					Y: y0 + (float64(r)+0.5)*dy,
				},
			})
		}
	}
	return build(nodes, f, radio), nil
}

func validate(n int, radio float64, f field.Field) error {
	if n <= 0 {
		return ErrNoNodes
	}
	if radio <= 0 {
		return ErrBadRadio
	}
	x0, y0, x1, y1 := f.Bounds()
	if x1 <= x0 || y1 <= y0 {
		return ErrBadBounds
	}
	return nil
}

func build(nodes []Node, f field.Field, radio float64) *Network {
	nw := &Network{
		nodes:  nodes,
		radio:  radio,
		bounds: field.BoundsRect(f),
	}
	nw.computeNeighbors()
	return nw
}

// computeNeighbors builds the adjacency lists with a uniform spatial hash
// whose bucket size equals the radio range, so neighbor search is O(n) in
// expectation.
func (nw *Network) computeNeighbors() {
	x0, y0, _, _ := boundsOf(nw.bounds)
	type cellKey struct{ cx, cy int }
	buckets := make(map[cellKey][]NodeID, len(nw.nodes))
	keyOf := func(p geom.Point) cellKey {
		return cellKey{
			cx: int(math.Floor((p.X - x0) / nw.radio)),
			cy: int(math.Floor((p.Y - y0) / nw.radio)),
		}
	}
	for i := range nw.nodes {
		k := keyOf(nw.nodes[i].Pos)
		buckets[k] = append(buckets[k], NodeID(i))
	}
	r2 := nw.radio * nw.radio
	nw.neighbors = make([][]NodeID, len(nw.nodes))
	for i := range nw.nodes {
		p := nw.nodes[i].Pos
		k := keyOf(p)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range buckets[cellKey{cx: k.cx + dx, cy: k.cy + dy}] {
					if j == NodeID(i) {
						continue
					}
					if p.Dist2To(nw.nodes[j].Pos) <= r2 {
						nw.neighbors[i] = append(nw.neighbors[i], j)
					}
				}
			}
		}
	}
}

func boundsOf(pg geom.Polygon) (x0, y0, x1, y1 float64) {
	return pg.BoundingBox()
}

// Len returns the number of deployed nodes (failed ones included).
func (nw *Network) Len() int { return len(nw.nodes) }

// Radio returns the radio range.
func (nw *Network) Radio() float64 { return nw.radio }

// Bounds returns the deployment area polygon.
func (nw *Network) Bounds() geom.Polygon { return nw.bounds }

// Node returns a pointer to the node with the given ID. The pointer stays
// valid for the lifetime of the network.
func (nw *Network) Node(id NodeID) *Node { return &nw.nodes[id] }

// Nodes returns the underlying node slice. Callers must not grow it; value
// edits (sensing, failure) are the intended use by the simulator.
func (nw *Network) Nodes() []Node { return nw.nodes }

// Neighbors returns the IDs of nodes within radio range of id, including
// failed ones; callers filter with Alive as needed.
func (nw *Network) Neighbors(id NodeID) []NodeID { return nw.neighbors[id] }

// AliveNeighbors returns the non-failed neighbors of id.
func (nw *Network) AliveNeighbors(id NodeID) []NodeID {
	var out []NodeID
	for _, j := range nw.neighbors[id] {
		if !nw.nodes[j].Failed {
			out = append(out, j)
		}
	}
	return out
}

// Alive reports whether the node exists and has not failed.
func (nw *Network) Alive(id NodeID) bool {
	return int(id) >= 0 && int(id) < len(nw.nodes) && !nw.nodes[id].Failed
}

// Sense samples the field at every alive node's position into Node.Value.
func (nw *Network) Sense(f field.Field) {
	for i := range nw.nodes {
		if nw.nodes[i].Failed {
			continue
		}
		nw.nodes[i].Value = f.Value(nw.nodes[i].Pos.X, nw.nodes[i].Pos.Y)
	}
}

// SenseWithNoise samples the field and adds independent Gaussian
// measurement noise with the given standard deviation, deterministic in
// seed. It models imperfect sensing hardware (the echolocation sensors of
// the harbor deployment are not exact).
func (nw *Network) SenseWithNoise(f field.Field, sigma float64, seed int64) {
	if sigma <= 0 {
		nw.Sense(f)
		return
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range nw.nodes {
		if nw.nodes[i].Failed {
			continue
		}
		v := f.Value(nw.nodes[i].Pos.X, nw.nodes[i].Pos.Y)
		nw.nodes[i].Value = v + rng.NormFloat64()*sigma
	}
}

// AverageDegree returns the mean neighbor count over alive nodes, counting
// only alive neighbors.
func (nw *Network) AverageDegree() float64 {
	alive, sum := 0, 0
	for i := range nw.nodes {
		if nw.nodes[i].Failed {
			continue
		}
		alive++
		sum += len(nw.AliveNeighbors(NodeID(i)))
	}
	if alive == 0 {
		return 0
	}
	return float64(sum) / float64(alive)
}

// FailFraction marks a random fraction of nodes failed, deterministic in
// seed. Already-failed nodes count toward the target, so repeated calls
// with growing fractions are monotone.
func (nw *Network) FailFraction(fraction float64, seed int64) {
	nw.FailFractionExcluding(fraction, seed)
}

// FailFractionExcluding is FailFraction with a protected set: the nodes
// in keep are never failed, no matter what the permutation draws. The
// target count and the permutation are identical to FailFraction's for
// the same arguments, so protecting nodes the draw would not have hit
// anyway changes nothing. Use it to kill relays while guaranteeing the
// sink (or another essential node) survives, instead of un-failing it
// after the fact — which would silently lower the failed fraction drawn
// from the rest.
func (nw *Network) FailFractionExcluding(fraction float64, seed int64, keep ...NodeID) {
	if fraction <= 0 {
		return
	}
	protected := make(map[NodeID]bool, len(keep))
	for _, id := range keep {
		protected[id] = true
	}
	target := int(math.Round(fraction * float64(len(nw.nodes))))
	failed := 0
	for i := range nw.nodes {
		if nw.nodes[i].Failed {
			failed++
		}
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(nw.nodes))
	for _, i := range perm {
		if failed >= target {
			break
		}
		if !nw.nodes[i].Failed && !protected[NodeID(i)] {
			nw.nodes[i].Failed = true
			failed++
		}
	}
}

// Clone returns a copy of the network that owns its node slice but shares
// the immutable radio graph (adjacency lists and bounds) with the
// original. Sensing and failure injection on the clone never affect the
// original, so one deployed network can back many concurrent protocol
// runs — the sim runner's deployment cache hands out one clone per
// experiment job, and isomapd one per deployment.
//
// Sharing audit (nothing else is shared mutable): radio is a value copy;
// bounds and the per-node neighbor slices are written only during
// NewNetwork/buildAdjacency and read-only ever after — no exported or
// internal caller appends to or reassigns them. The per-round mutable
// state is exactly the Node structs (Value, Failed), which the clone
// owns. Round-scoped mutations must also stay round-scoped: a protocol
// round that marks nodes Failed (crash faults) must restore them before
// returning, or same-seed clones diverge on later rounds (see
// desim.RunRound's crash restore).
func (nw *Network) Clone() *Network {
	nodes := make([]Node, len(nw.nodes))
	copy(nodes, nw.nodes)
	return &Network{
		nodes:     nodes,
		radio:     nw.radio,
		bounds:    nw.bounds,
		neighbors: nw.neighbors,
	}
}

// Reset clears failure marks and sensed values.
func (nw *Network) Reset() {
	for i := range nw.nodes {
		nw.nodes[i].Failed = false
		nw.nodes[i].Value = 0
	}
}

// NearestNode returns the alive node nearest to p, or an error when all
// nodes are failed.
func (nw *Network) NearestNode(p geom.Point) (NodeID, error) {
	best := NodeID(-1)
	bestDist := math.Inf(1)
	for i := range nw.nodes {
		if nw.nodes[i].Failed {
			continue
		}
		if d := p.Dist2To(nw.nodes[i].Pos); d < bestDist {
			best, bestDist = NodeID(i), d
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("network: no alive node near %v", p)
	}
	return best, nil
}

// ConnectedFrom reports the number of alive nodes reachable from root in
// the alive communication graph (including root itself when alive).
func (nw *Network) ConnectedFrom(root NodeID) int {
	if !nw.Alive(root) {
		return 0
	}
	seen := make([]bool, len(nw.nodes))
	queue := []NodeID{root}
	seen[root] = true
	count := 0
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		count++
		for _, j := range nw.AliveNeighbors(cur) {
			if !seen[j] {
				seen[j] = true
				queue = append(queue, j)
			}
		}
	}
	return count
}

// KHopNeighbors returns the alive nodes within k hops of id (excluding id).
// The data-suppression baseline needs 2-hop neighborhoods (Sec. 6).
func (nw *Network) KHopNeighbors(id NodeID, k int) []NodeID {
	if k <= 0 || !nw.Alive(id) {
		return nil
	}
	seen := make(map[NodeID]bool, 16)
	seen[id] = true
	frontier := []NodeID{id}
	var out []NodeID
	for hop := 0; hop < k; hop++ {
		var next []NodeID
		for _, cur := range frontier {
			for _, j := range nw.AliveNeighbors(cur) {
				if !seen[j] {
					seen[j] = true
					next = append(next, j)
					out = append(out, j)
				}
			}
		}
		frontier = next
	}
	return out
}
