// Package netauth is the shared transport-hardening layer for every
// networked surface in the repo: the fleet protocol (internal/fleet)
// and the simulation service (internal/serve).
//
// It provides exactly two mechanisms, applied uniformly:
//
//   - Bearer-token authentication: a single shared secret per
//     deployment, checked in constant time. Servers wrap their handler
//     in Middleware; clients wrap their transport in Transport. Which
//     paths stay open without a token (health probes, read-only stats)
//     is each server's choice, expressed as an open-path predicate.
//
//   - TLS, optionally mutual: ServerTLS builds a server config from a
//     cert/key pair plus an optional client CA (presence of the CA
//     makes client certificates mandatory — mTLS); ClientTLS builds the
//     dialing side from a trust bundle and an optional client cert.
//
// The Flags struct registers the same flag names on every command
// (-auth-token, -auth-token-file, -tls-cert, -tls-key, -tls-ca,
// -tls-client-ca, -tls-insecure), so operating the fleet and the
// serving API is one set of habits, not two.
package netauth

import (
	"crypto/sha256"
	"crypto/subtle"
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"net/http"
	"os"
	"strings"
)

// Scheme is the Authorization scheme the middleware accepts.
const Scheme = "Bearer"

// EqualToken compares two tokens in constant time. Both sides are
// hashed first so the comparison leaks neither contents nor length.
func EqualToken(a, b string) bool {
	ha := sha256.Sum256([]byte(a))
	hb := sha256.Sum256([]byte(b))
	return subtle.ConstantTimeCompare(ha[:], hb[:]) == 1
}

// RequestToken extracts the bearer token from a request
// ("Authorization: Bearer <token>"); empty when absent or malformed.
func RequestToken(r *http.Request) string {
	h := r.Header.Get("Authorization")
	if h == "" {
		return ""
	}
	parts := strings.SplitN(h, " ", 2)
	if len(parts) != 2 || !strings.EqualFold(parts[0], Scheme) {
		return ""
	}
	return strings.TrimSpace(parts[1])
}

// Unauthenticated is the JSON body of every 401 the middleware writes.
// Kind matches the serve package's error-body convention so clients can
// switch on it without importing serve.
type Unauthenticated struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// KindUnauthenticated is the machine-readable kind of a 401 body.
const KindUnauthenticated = "unauthenticated"

// Middleware enforces the bearer token on every request that the open
// predicate does not exempt. An empty token disables enforcement
// entirely (auth off). open may be nil (nothing exempt). The 401 body
// is JSON and carries WWW-Authenticate so curl users see why.
func Middleware(token string, open func(*http.Request) bool, next http.Handler) http.Handler {
	if token == "" {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if open != nil && open(r) {
			next.ServeHTTP(w, r)
			return
		}
		if !EqualToken(RequestToken(r), token) {
			w.Header().Set("WWW-Authenticate", Scheme)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusUnauthorized)
			fmt.Fprintf(w, `{"error":"missing or invalid bearer token","kind":%q}`+"\n", KindUnauthenticated)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// OpenReadOnly is the common open-path predicate: GET/HEAD requests
// pass without a token, writes require one. Servers whose reads are
// public by default (fleet stats, perf dashboards) use this.
func OpenReadOnly(r *http.Request) bool {
	return r.Method == http.MethodGet || r.Method == http.MethodHead
}

// OpenPaths builds an open predicate from exact request paths —
// typically health probes ("/healthz", "/readyz").
func OpenPaths(paths ...string) func(*http.Request) bool {
	set := make(map[string]bool, len(paths))
	for _, p := range paths {
		set[p] = true
	}
	return func(r *http.Request) bool { return set[r.URL.Path] }
}

// Or combines open predicates: a request is open if any predicate says
// so. Nil predicates are skipped.
func Or(preds ...func(*http.Request) bool) func(*http.Request) bool {
	return func(r *http.Request) bool {
		for _, p := range preds {
			if p != nil && p(r) {
				return true
			}
		}
		return false
	}
}

// Transport is an http.RoundTripper that attaches the bearer token to
// every outgoing request. A zero token makes it a transparent pass-
// through, so clients can wrap unconditionally.
type Transport struct {
	// Token is the shared secret; empty disables injection.
	Token string
	// Base is the underlying transport (nil = http.DefaultTransport).
	Base http.RoundTripper
}

// RoundTrip implements http.RoundTripper. The request is cloned before
// the header write, per the RoundTripper contract.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	if t.Token == "" {
		return base.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set("Authorization", Scheme+" "+t.Token)
	return base.RoundTrip(req)
}

// ServerTLS builds a server-side TLS config from a PEM cert/key pair.
// When clientCAFile is non-empty the returned config also requires and
// verifies client certificates against that bundle (mTLS). Both files
// empty returns (nil, nil): TLS off.
func ServerTLS(certFile, keyFile, clientCAFile string) (*tls.Config, error) {
	if certFile == "" && keyFile == "" {
		if clientCAFile != "" {
			return nil, fmt.Errorf("netauth: -tls-client-ca needs -tls-cert and -tls-key")
		}
		return nil, nil
	}
	if certFile == "" || keyFile == "" {
		return nil, fmt.Errorf("netauth: -tls-cert and -tls-key must be set together")
	}
	cert, err := tls.LoadX509KeyPair(certFile, keyFile)
	if err != nil {
		return nil, fmt.Errorf("netauth: load server cert: %w", err)
	}
	cfg := &tls.Config{
		Certificates: []tls.Certificate{cert},
		MinVersion:   tls.VersionTLS12,
	}
	if clientCAFile != "" {
		pool, err := loadCertPool(clientCAFile)
		if err != nil {
			return nil, err
		}
		cfg.ClientCAs = pool
		cfg.ClientAuth = tls.RequireAndVerifyClientCert
	}
	return cfg, nil
}

// ClientTLS builds the dialing side: caFile is the trust bundle for
// server verification (empty = system roots), certFile/keyFile an
// optional client certificate for mTLS, and insecure skips server
// verification (testing only). All-empty and secure returns (nil, nil):
// the plain default transport suffices.
func ClientTLS(caFile, certFile, keyFile string, insecure bool) (*tls.Config, error) {
	if caFile == "" && certFile == "" && keyFile == "" && !insecure {
		return nil, nil
	}
	if (certFile == "") != (keyFile == "") {
		return nil, fmt.Errorf("netauth: -tls-cert and -tls-key must be set together")
	}
	cfg := &tls.Config{MinVersion: tls.VersionTLS12, InsecureSkipVerify: insecure}
	if caFile != "" {
		pool, err := loadCertPool(caFile)
		if err != nil {
			return nil, err
		}
		cfg.RootCAs = pool
	}
	if certFile != "" {
		cert, err := tls.LoadX509KeyPair(certFile, keyFile)
		if err != nil {
			return nil, fmt.Errorf("netauth: load client cert: %w", err)
		}
		cfg.Certificates = []tls.Certificate{cert}
	}
	return cfg, nil
}

func loadCertPool(path string) (*x509.CertPool, error) {
	pem, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("netauth: read CA bundle: %w", err)
	}
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(pem) {
		return nil, fmt.Errorf("netauth: no certificates in %s", path)
	}
	return pool, nil
}
