package libos

import (
	"errors"
	"testing"

	"autarky/internal/core"
)

// validBase is a configuration that must pass validation — the quickstart
// shape every example uses.
func validBase() Config {
	return Config{
		SelfPaging:     true,
		Policy:         PolicyRateLimit,
		RateLimitBurst: 1 << 30,
		QuotaPages:     48,
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		field  string // "" = must be valid
	}{
		{"zero config", func(c *Config) { *c = Config{} }, ""},
		{"quickstart", func(c *Config) {}, ""},
		{"legacy with rate params (E9 baseline)", func(c *Config) { c.SelfPaging = false }, ""},
		{"clusters with rate limit", func(c *Config) { c.Policy = PolicyClusters; c.DataClusterPages = 10 }, ""},
		{"all optimizations via ElideAEX", func(c *Config) { c.ElideAEX = true }, ""},
		{"in-enclave resume alone", func(c *Config) { c.InEnclaveResume = true }, ""},
		{"sgx2", func(c *Config) { c.Mech = core.MechSGX2 }, ""},

		{"negative quota", func(c *Config) { c.QuotaPages = -1 }, "QuotaPages"},
		{"negative NSSA", func(c *Config) { c.NSSA = -3 }, "NSSA"},
		{"policy below range", func(c *Config) { c.Policy = PolicyKind(-1) }, "Policy"},
		{"policy above range", func(c *Config) { c.Policy = PolicyORAM + 1 }, "Policy"},
		{"unknown mech", func(c *Config) { c.Mech = core.Mech(7) }, "Mech"},
		{"negative rate", func(c *Config) { c.RateLimitPerProgress = -0.5 }, "RateLimitPerProgress"},
		{"negative cluster size", func(c *Config) { c.DataClusterPages = -4 }, "DataClusterPages"},
		{"resume without self-paging", func(c *Config) { c.SelfPaging = false; c.InEnclaveResume = true }, "InEnclaveResume"},
		{"elide without self-paging", func(c *Config) { c.SelfPaging = false; c.ElideAEX = true }, "ElideAEX"},
		{"code clusters without self-paging", func(c *Config) { c.SelfPaging = false; c.CodeClusters = true }, "CodeClusters"},
		{"pin data without self-paging", func(c *Config) { c.SelfPaging = false; c.PinData = true }, "PinData"},
		{"resume and elide together", func(c *Config) { c.InEnclaveResume = true; c.ElideAEX = true }, "InEnclaveResume"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := validBase()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.field == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("error does not unwrap to ErrBadConfig: %v", err)
			}
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("error is not a *ConfigError: %v", err)
			}
			if ce.Field != tc.field {
				t.Fatalf("rejected field %q, want %q (%v)", ce.Field, tc.field, err)
			}
		})
	}
}

func errTestImage() AppImage {
	return AppImage{
		Name:      "errs",
		Libraries: []Library{{Name: "liberrs.so", Pages: 2}},
		HeapPages: 8,
	}
}

func TestLoadRejectsBadConfig(t *testing.T) {
	k := newKernel(2048)
	cfg := validBase()
	cfg.QuotaPages = -1
	_, err := Load(k, errTestImage(), cfg)
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("Load error = %v, want ErrBadConfig", err)
	}
}

func TestAllocQuotaErrors(t *testing.T) {
	p := load(t, errTestImage(), validBase())
	if _, err := p.Alloc.AllocPages(9); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-allocation error = %v, want ErrQuotaExceeded", err)
	}
	if _, err := p.Alloc.Alloc(9 * 4096); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-Alloc error = %v, want ErrQuotaExceeded", err)
	}
}
