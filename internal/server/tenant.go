package server

import (
	"errors"
	"fmt"
	"time"
)

// Per-tenant admission: quotas and QoS layered on the global 503
// backpressure. Every submission names a tenant (X-Tenant header;
// "default" when absent) and passes two gates before it can compete
// for the shared queue: a max-in-flight quota (queued, running and
// retrying jobs, schedule epochs included) and a token bucket (rate +
// burst). Both refuse with a 429-mapped error carrying a Retry-After
// hint — a tenant over its own budget is not the service being full,
// and must never read as the 503 that tells a healthy tenant to back
// off.

// tenantState is one tenant's admission and accounting state, written
// only by the lifecycle, under its mutex.
type tenantState struct {
	name   string
	active int // in-flight jobs (queued, running or retrying); quota gate

	tokens float64   // token bucket level
	last   time.Time // last refill, obs clock

	admitted int64 // submissions accepted
	rejected int64 // submissions refused by quota or bucket
}

func (c Config) tenantBurst() float64 {
	if c.TenantRate <= 0 {
		return 0
	}
	if c.TenantBurst > 0 {
		return c.TenantBurst
	}
	return max(c.TenantRate, 1)
}

// quotaError is the 429 refusal: the tenant is over its own budget.
type quotaError struct {
	tenant     string
	reason     string
	retryAfter time.Duration
}

func (e *quotaError) Error() string {
	return fmt.Sprintf("tenant %q over %s (retry in %v)", e.tenant, e.reason, e.retryAfter)
}

// asQuotaError unwraps err into a quotaError, or nil.
func asQuotaError(err error) *quotaError {
	var qe *quotaError
	if errors.As(err, &qe) {
		return qe
	}
	return nil
}
