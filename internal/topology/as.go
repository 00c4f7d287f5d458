package topology

import "fmt"

// ASType is the CAIDA-style business classification the paper's Table 1
// breaks results down by. It is what the exported AS-classification
// dataset records; analyses must read it from the dataset, not from
// generator internals.
type ASType int

const (
	// TypeTransitAccess covers transit providers and access/eyeball
	// networks (CAIDA groups them).
	TypeTransitAccess ASType = iota
	// TypeEnterprise is a stub business network.
	TypeEnterprise
	// TypeContent is a content provider or CDN.
	TypeContent
	// TypeUnknown is an AS the classifier could not label.
	TypeUnknown
)

// String returns the dataset label for the type.
func (t ASType) String() string {
	switch t {
	case TypeTransitAccess:
		return "Transit/Access"
	case TypeEnterprise:
		return "Enterprise"
	case TypeContent:
		return "Content"
	case TypeUnknown:
		return "Unknown"
	default:
		return fmt.Sprintf("ASType(%d)", int(t))
	}
}

// Role is the structural role an AS plays in the generated graph. Role
// determines connectivity; ASType is the (coarser) classification the
// analysis sees.
type Role int

const (
	// RoleTier1 is a transit-free core AS, mutually peered with the
	// other tier-1s.
	RoleTier1 Role = iota
	// RoleTransit is a regional/national transit provider.
	RoleTransit
	// RoleAccess is an eyeball/access network hosting many prefixes.
	RoleAccess
	// RoleEnterprise is a stub business network.
	RoleEnterprise
	// RoleContent is a content provider or CDN.
	RoleContent
	// RoleUnknownStub is a stub whose classification is Unknown.
	RoleUnknownStub
	// RoleCloud is a large cloud provider (classified Content) with
	// very broad peering in the 2016 epoch.
	RoleCloud
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleTier1:
		return "tier1"
	case RoleTransit:
		return "transit"
	case RoleAccess:
		return "access"
	case RoleEnterprise:
		return "enterprise"
	case RoleContent:
		return "content"
	case RoleUnknownStub:
		return "unknown-stub"
	case RoleCloud:
		return "cloud"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Type returns the CAIDA-style classification for a role.
func (r Role) Type() ASType {
	switch r {
	case RoleTier1, RoleTransit, RoleAccess:
		return TypeTransitAccess
	case RoleEnterprise:
		return TypeEnterprise
	case RoleContent, RoleCloud:
		return TypeContent
	default:
		return TypeUnknown
	}
}

// AS is one autonomous system in the generated topology.
type AS struct {
	// Index is the AS's position in the graph (0-based).
	Index int
	// ASN is the AS number exported in datasets (arbitrary but stable).
	ASN int
	// Role drives connectivity and behaviour assignment.
	Role Role
	// Name is a human-readable label; cloud ASes carry provider names.
	Name string
	// NumRouters is how many routers the AS expands to.
	NumRouters int
	// NumPrefixes is how many /24 destination prefixes it advertises.
	NumPrefixes int

	// Policy flags assigned at build time.

	// FilterOptions drops IP-options packets at every router of the AS.
	FilterOptions bool
	// NoStamp forwards options packets without stamping, AS-wide
	// (the global configuration §3.5 looks for).
	NoStamp bool
	// PartialNoStamp disables stamping on a subset of the AS's routers.
	PartialNoStamp bool
}

// Type returns the AS's dataset classification.
func (a *AS) Type() ASType { return a.Role.Type() }
