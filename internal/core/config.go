// Package core implements DTN-FLOW (Section IV), the paper's primary
// contribution: inter-landmark packet routing over node transits. Each
// landmark measures the bandwidth of its outgoing transit links from
// node-carried reports (IV-C.1), builds a distance-vector routing table
// (IV-C.2), predicts node transits with an order-k Markov predictor (IV-B),
// and forwards each packet to the connected node with the highest overall
// probability of transiting to the packet's next-hop landmark (IV-D).
// The advanced extensions of Section IV-E — dead-end prevention, routing
// loop detection and correction, and load balancing — are all implemented
// and individually switchable, as is the node-destination routing mode of
// IV-E.4.
package core

// Config holds the DTN-FLOW knobs that experiments vary. DefaultConfig
// returns the values used in the paper's evaluation; the paper's fixed
// parameters (accuracy multipliers, scheduling thresholds, loop period,
// overload factor, frequented-landmark count) are named constants next to
// the code that reads them. The JSON names are the ones a stored
// experiment cell (experiment.Cell.Flow) is fingerprinted by.
type Config struct {
	// Order is the order k of the Markov transit predictor; the paper
	// finds k=1 best on both traces (Fig. 6a).
	Order int `json:"order"`
	// Rho is the EWMA weight of the bandwidth update, Eq. (4).
	Rho float64 `json:"rho"`

	// UseAccuracy selects carriers by p_o = p_t · p_a (Section IV-D.4)
	// instead of the raw transit probability p_t.
	UseAccuracy bool `json:"use_accuracy"`

	// DirectDelivery hands a packet straight to a node predicted to
	// transit to the packet's destination landmark (Section IV-D.2).
	DirectDelivery bool `json:"direct_delivery"`
	// HoldOnWorse keeps a mis-carried packet on its node unless the
	// reached landmark reduces the expected delay to the destination
	// (Section IV-D.1). Disabling it uploads unconditionally.
	HoldOnWorse bool `json:"hold_on_worse"`

	// Dead-end prevention (Section IV-E.1).
	DeadEnd bool    `json:"dead_end"`
	Gamma   float64 `json:"gamma"` // stay-time multiple; the paper finds 2 best

	// Routing-loop detection and correction (Section IV-E.2).
	LoopFix bool `json:"loop_fix"`

	// Load balancing (Section IV-E.3).
	LoadBalance bool `json:"load_balance"`

	// NodeRouting addresses packets to mobile nodes via their most
	// frequented landmarks (Section IV-E.4).
	NodeRouting bool `json:"node_routing"`
}

// DefaultConfig returns the configuration used for the headline results:
// order-1 prediction, all four components on, extensions off (they are
// evaluated separately in Section V-B).
func DefaultConfig() Config {
	return Config{
		Order:          1,
		Rho:            0.5,
		UseAccuracy:    true,
		DirectDelivery: true,
		HoldOnWorse:    true,
		Gamma:          2,
	}
}

// FullConfig returns DefaultConfig with all three Section IV-E extensions
// enabled.
func FullConfig() Config {
	cfg := DefaultConfig()
	cfg.DeadEnd = true
	cfg.LoopFix = true
	cfg.LoadBalance = true
	return cfg
}
