// Package core is the public face of the Unicert reproduction: a
// single Analyzer type that wires together the linter (RQ1), the TLS
// library differential harness (RQ2), and the threat-scenario
// experiments (RQ3). The command-line tools, the examples, and the
// benchmark harness all drive this API.
package core

import (
	"context"
	"fmt"

	"repro/internal/browser"
	"repro/internal/corpus"
	"repro/internal/difftest"
	"repro/internal/hostverify"
	"repro/internal/lint"
	_ "repro/internal/lint/lints" // register the 95 Unicert lints
	"repro/internal/monitor"
	"repro/internal/pipeline"
	"repro/internal/revocation"
	"repro/internal/rfcrules"
	"repro/internal/tlsimpl"
	"repro/internal/x509cert"
)

// Analyzer bundles the registry and harness seeds.
type Analyzer struct {
	Registry *lint.Registry
	Seed     int64
}

// NewAnalyzer returns an analyzer over the global 95-lint registry.
func NewAnalyzer() *Analyzer {
	return &Analyzer{Registry: lint.Global, Seed: 2025}
}

// LintDER lints one DER certificate.
func (a *Analyzer) LintDER(der []byte, opts lint.Options) (*lint.CertResult, error) {
	cert, err := x509cert.ParseWithMode(der, x509cert.ParseLenient)
	if err != nil {
		return nil, fmt.Errorf("core: %v", err)
	}
	return a.Registry.Run(cert, opts), nil
}

// LintPEM lints every certificate in a PEM bundle.
func (a *Analyzer) LintPEM(pemData []byte, opts lint.Options) ([]*lint.CertResult, error) {
	ders, err := x509cert.DecodePEM(pemData)
	if err != nil {
		return nil, err
	}
	out := make([]*lint.CertResult, 0, len(ders))
	for _, der := range ders {
		res, err := a.LintDER(der, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// MeasureCorpus generates a corpus and runs the RQ1 measurement over
// it on the parallel pipeline. pc sizes the run (zero Workers means
// runtime.NumCPU) and attaches observability; sharded generation makes
// the measurement byte-identical to the sequential path for any worker
// count. The result carries the pipeline Stats and any quarantines.
func (a *Analyzer) MeasureCorpus(ctx context.Context, cfg corpus.Config, opts lint.Options, pc pipeline.Config) (*pipeline.Result, error) {
	return pipeline.Measure(ctx, cfg, a.Registry, opts, pc)
}

// LibraryAnalysis runs the RQ2 differential tests and returns the
// Table 4 and Table 5 findings.
func (a *Analyzer) LibraryAnalysis() ([]difftest.DecodeFinding, []difftest.CharFinding, error) {
	h, err := difftest.NewHarness(a.Seed)
	if err != nil {
		return nil, nil, err
	}
	t4, err := h.Table4()
	if err != nil {
		return nil, nil, err
	}
	t5, err := h.Table5()
	if err != nil {
		return nil, nil, err
	}
	return t4, t5, nil
}

// MonitorExperiment runs the §6.1 misleading experiment against a
// forged certificate.
func (a *Analyzer) MonitorExperiment(forged *x509cert.Certificate, victimDomain string) []monitor.MisleadResult {
	return monitor.MisleadExperiment(forged, victimDomain)
}

// SpoofExperiment runs the Appendix F.1 browser rendering experiment.
func (a *Analyzer) SpoofExperiment(value, target string) []browser.SpoofFinding {
	return browser.SpoofExperiment(value, target)
}

// Rules exposes the constraint-rule knowledge base (the RFCGPT
// substitute of §3.1.1).
func (a *Analyzer) Rules() []rfcrules.Rule {
	return rfcrules.NewEngine().DeriveRules()
}

// VerifyHostname checks host against the certificate under the given
// policy (RFC 9525-style; see internal/hostverify).
func (a *Analyzer) VerifyHostname(pol hostverify.Policy, c *x509cert.Certificate, host string) error {
	return hostverify.Verify(pol, c, host)
}

// CheckRevocation resolves and checks the certificate's CRL through
// the given library model's parser (the §5.2 threat surface).
func (a *Analyzer) CheckRevocation(lib tlsimpl.Library, net *revocation.Network, issuer *x509cert.Certificate, certDER []byte) (revocation.Status, string, error) {
	return revocation.Check(lib, net, issuer, certDER)
}
