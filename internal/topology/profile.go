package topology

import "fmt"

// ScaleProfile names a calibrated topology size. Profiles scale the AS
// roster and prefix counts while keeping the behaviour-rate calibration
// (filtering, stamping, responsiveness) fixed, so study results stay
// comparable across sizes.
type ScaleProfile string

const (
	// ScaleSmall is a quick-iteration topology (~1/400 of the paper):
	// a few thousand prefixes, seconds to build and probe.
	ScaleSmall ScaleProfile = "small"
	// ScaleMedium is the default calibrated size (~1/100 of the paper).
	ScaleMedium ScaleProfile = "medium"
	// ScaleLarge approaches the paper's hitlist magnitude: 10⁵+
	// advertised prefixes across ~1.5k ASes. Building it is expensive —
	// this is the profile the snapshot/clone replication path exists for.
	ScaleLarge ScaleProfile = "large"
)

// ProfileConfig returns the calibrated configuration for a profile at
// the given epoch. An empty profile means medium.
func ProfileConfig(epoch Epoch, p ScaleProfile) (Config, error) {
	c := DefaultConfig(epoch)
	switch p {
	case ScaleSmall:
		return c.Scale(0.25), nil
	case ScaleMedium, "":
		return c, nil
	case ScaleLarge:
	default:
		return Config{}, fmt.Errorf("topology: unknown scale profile %q (want small, medium, or large)", p)
	}

	// Large: grow the roster toward the paper's shape and push the
	// advertised-prefix total past 10⁵ (the paper's hitlist has one
	// representative per routable /24). Peering probabilities shrink as
	// the roster grows so per-AS adjacency degree stays calibrated, and
	// the VP set stays at a size whose full Table 1 campaign completes in
	// minutes.
	c.NumTier1 = 8
	c.NumTransit = 100
	c.NumAccess = 520
	c.NumEnterprise = 700
	c.NumContent = 60
	c.NumUnknown = 160

	c.PrefixesPerTransit = 12
	c.PrefixesPerAccess = 170
	c.PrefixesPerEnterprise = 4
	c.PrefixesPerContent = 120
	c.PrefixesPerUnknown = 40

	c.RoutersPerTier1 = 6
	c.RoutersPerTransit = 6
	c.RoutersPerAccess = 10
	c.RoutersPerStub = 3
	c.RoutersPerCloud = 3

	c.TransitPeerProb = 0.12
	c.AccessPeerProb = 0.012
	c.ContentAccessPeerProb = 0.10
	c.ContentTransitPeerProb = 0.15
	c.CloudPeerProb = 0.45

	c.NumMLab = 14
	c.NumPlanetLab = 8
	c.MLabRateLimited = 2
	return c, nil
}
