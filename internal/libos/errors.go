package libos

import (
	"errors"
	"fmt"

	"autarky/internal/core"
)

// ErrBadConfig is the root sentinel for load-time configuration rejections.
// Every *ConfigError unwraps to it, so callers can match the whole class
// with errors.Is(err, ErrBadConfig) or pull the offending field with
// errors.As into a *ConfigError.
var ErrBadConfig = errors.New("libos: bad config")

// ErrQuotaExceeded marks refusals where an allocation would exceed a
// configured libOS resource bound: the heap region or the ELRANGE growth
// reserve. EPC capacity failures are a different class — see
// core.ErrEPCExhausted.
var ErrQuotaExceeded = errors.New("libos: resource quota exceeded")

// ConfigError reports which Config field was rejected and why.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("libos: bad config: %s %s", e.Field, e.Reason)
}

// Unwrap ties every ConfigError to the ErrBadConfig sentinel.
func (e *ConfigError) Unwrap() error { return ErrBadConfig }

// Validate checks the configuration for out-of-range values and
// contradictory combinations. Load calls it before doing any work, so a
// bad configuration fails fast with a field-specific error instead of
// surfacing as a confusing runtime termination.
func (c Config) Validate() error {
	if c.Base.Offset() != 0 {
		return &ConfigError{"Base", fmt.Sprintf("must be page-aligned, got %s", c.Base)}
	}
	if c.QuotaPages < 0 {
		return &ConfigError{"QuotaPages", fmt.Sprintf("must be non-negative, got %d", c.QuotaPages)}
	}
	if c.Policy < PolicyPinAll || c.Policy > PolicyORAM {
		return &ConfigError{"Policy", fmt.Sprintf("unknown policy %d", int(c.Policy))}
	}
	if c.Mech != core.MechSGX1 && c.Mech != core.MechSGX2 {
		return &ConfigError{"Mech", fmt.Sprintf("unknown paging mechanism %d", int(c.Mech))}
	}
	if c.RateLimitPerProgress < 0 {
		return &ConfigError{"RateLimitPerProgress", fmt.Sprintf("must be non-negative, got %g", c.RateLimitPerProgress)}
	}
	if c.DataClusterPages < 0 {
		return &ConfigError{"DataClusterPages", fmt.Sprintf("must be non-negative, got %d", c.DataClusterPages)}
	}
	// The §5.1.3 fault-path optimizations and the clustering machinery are
	// properties of the self-paging runtime; on a legacy enclave they would
	// silently do nothing, which always indicates a caller mistake.
	if !c.SelfPaging {
		switch {
		case c.InEnclaveResume:
			return &ConfigError{"InEnclaveResume", "requires SelfPaging"}
		case c.ElideAEX:
			return &ConfigError{"ElideAEX", "requires SelfPaging"}
		case c.CodeClusters:
			return &ConfigError{"CodeClusters", "requires SelfPaging"}
		}
	}
	if c.InEnclaveResume && c.ElideAEX {
		return &ConfigError{"InEnclaveResume", "is subsumed by ElideAEX; set only one"}
	}
	return nil
}
