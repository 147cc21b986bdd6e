package netauth

import (
	"crypto/tls"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	})
}

func TestMiddlewareEnforcesToken(t *testing.T) {
	h := Middleware("s3cret", nil, okHandler())
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/thing")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("no token: got %d, want 401", resp.StatusCode)
	}
	var body Unauthenticated
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("401 body not JSON: %v", err)
	}
	if body.Kind != KindUnauthenticated {
		t.Fatalf("401 kind = %q, want %q", body.Kind, KindUnauthenticated)
	}
	if got := resp.Header.Get("WWW-Authenticate"); got != Scheme {
		t.Fatalf("WWW-Authenticate = %q, want %q", got, Scheme)
	}

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/thing", nil)
	req.Header.Set("Authorization", "Bearer wrong")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong token: got %d, want 401", resp2.StatusCode)
	}

	req.Header.Set("Authorization", "Bearer s3cret")
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("right token: got %d, want 200", resp3.StatusCode)
	}
}

func TestMiddlewareOpenPredicates(t *testing.T) {
	open := Or(OpenPaths("/healthz"), OpenReadOnly)
	h := Middleware("tok", open, okHandler())
	srv := httptest.NewServer(h)
	defer srv.Close()

	for _, tc := range []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/healthz", http.StatusOK},
		{http.MethodGet, "/api/stats", http.StatusOK}, // read-only open
		{http.MethodPost, "/v1/simulate", http.StatusUnauthorized},
		{http.MethodPost, "/healthz", http.StatusOK}, // exact path open regardless of method
	} {
		req, _ := http.NewRequest(tc.method, srv.URL+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: got %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
}

func TestMiddlewareEmptyTokenPassThrough(t *testing.T) {
	h := Middleware("", nil, okHandler())
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/write", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("auth off: got %d, want 200", resp.StatusCode)
	}
}

func TestTransportInjectsToken(t *testing.T) {
	var seen string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = r.Header.Get("Authorization")
	}))
	defer srv.Close()

	c := &http.Client{Transport: &Transport{Token: "abc"}}
	resp, err := c.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if seen != "Bearer abc" {
		t.Fatalf("Authorization = %q, want %q", seen, "Bearer abc")
	}
}

func TestEqualToken(t *testing.T) {
	if !EqualToken("a", "a") {
		t.Fatal("equal tokens reported unequal")
	}
	if EqualToken("a", "b") || EqualToken("a", "aa") {
		t.Fatal("unequal tokens reported equal")
	}
}

func TestTLSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cert := filepath.Join(dir, "tls.crt")
	key := filepath.Join(dir, "tls.key")
	if err := WriteSelfSigned(cert, key, []string{"127.0.0.1", "localhost"}, time.Hour); err != nil {
		t.Fatal(err)
	}

	srvCfg, err := ServerTLS(cert, key, "")
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewUnstartedServer(okHandler())
	srv.TLS = srvCfg
	srv.StartTLS()
	defer srv.Close()

	// Self-signed cert doubles as the CA bundle.
	cliCfg, err := ClientTLS(cert, "", "", false)
	if err != nil {
		t.Fatal(err)
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.TLSClientConfig = cliCfg
	c := &http.Client{Transport: tr}
	resp, err := c.Get(srv.URL)
	if err != nil {
		t.Fatalf("TLS round trip: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("TLS round trip: got %d", resp.StatusCode)
	}
}

func TestMutualTLS(t *testing.T) {
	dir := t.TempDir()
	cert := filepath.Join(dir, "tls.crt")
	key := filepath.Join(dir, "tls.key")
	if err := WriteSelfSigned(cert, key, []string{"127.0.0.1", "localhost"}, time.Hour); err != nil {
		t.Fatal(err)
	}

	srvCfg, err := ServerTLS(cert, key, cert) // require client certs signed by our own CA
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewUnstartedServer(okHandler())
	srv.TLS = srvCfg
	srv.StartTLS()
	defer srv.Close()

	// Without a client cert the handshake (or first read) must fail.
	noCert, err := ClientTLS(cert, "", "", false)
	if err != nil {
		t.Fatal(err)
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.TLSClientConfig = noCert
	if resp, err := (&http.Client{Transport: tr}).Get(srv.URL); err == nil {
		resp.Body.Close()
		t.Fatal("mTLS server accepted a client without a certificate")
	}

	withCert, err := ClientTLS(cert, cert, key, false)
	if err != nil {
		t.Fatal(err)
	}
	tr2 := http.DefaultTransport.(*http.Transport).Clone()
	tr2.TLSClientConfig = withCert
	resp, err := (&http.Client{Transport: tr2}).Get(srv.URL)
	if err != nil {
		t.Fatalf("mTLS with client cert: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mTLS with client cert: got %d", resp.StatusCode)
	}
}

func TestServerTLSPartialConfig(t *testing.T) {
	if _, err := ServerTLS("cert-only", "", ""); err == nil {
		t.Fatal("cert without key accepted")
	}
	if _, err := ServerTLS("", "", "ca.pem"); err == nil {
		t.Fatal("client CA without cert/key accepted")
	}
	cfg, err := ServerTLS("", "", "")
	if err != nil || cfg != nil {
		t.Fatalf("all-empty: got cfg=%v err=%v, want nil,nil", cfg, err)
	}
}

func TestFlagsTokenResolution(t *testing.T) {
	dir := t.TempDir()
	tokFile := filepath.Join(dir, "token")
	if err := os.WriteFile(tokFile, []byte("from-file\n"), 0o600); err != nil {
		t.Fatal(err)
	}

	var f Flags
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f.Register(fs)
	if err := fs.Parse([]string{"-auth-token", "inline", "-auth-token-file", tokFile}); err != nil {
		t.Fatal(err)
	}
	tok, err := f.Token()
	if err != nil {
		t.Fatal(err)
	}
	if tok != "from-file" {
		t.Fatalf("token = %q, want file contents to win (trimmed)", tok)
	}

	f2 := Flags{TokenFlag: "inline"}
	tok2, err := f2.Token()
	if err != nil || tok2 != "inline" {
		t.Fatalf("inline token = %q err=%v", tok2, err)
	}

	f3 := Flags{TokenFile: filepath.Join(dir, "missing")}
	if _, err := f3.Token(); err == nil {
		t.Fatal("missing token file accepted")
	}
}

func TestFlagsClient(t *testing.T) {
	var seen string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = r.Header.Get("Authorization")
	}))
	defer srv.Close()

	f := Flags{TokenFlag: "tok"}
	c, err := f.Client(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if seen != "Bearer tok" {
		t.Fatalf("Authorization = %q", seen)
	}
}

func TestURLScheme(t *testing.T) {
	if URLScheme(nil) != "http" {
		t.Fatal("nil config should be http")
	}
	if URLScheme(&tls.Config{}) != "https" {
		t.Fatal("non-nil config should be https")
	}
}
