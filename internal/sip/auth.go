package sip

import (
	"crypto/md5"
	"fmt"
	"strings"
)

// Digest authentication per RFC 2617 as used by SIP (RFC 3261 22):
// the registrar challenges with a realm and nonce, the client answers
// with response = MD5(MD5(user:realm:password):nonce:MD5(method:uri)).
// This mirrors the paper's testbed, where the Asterisk server fronts
// an LDAP directory for "user authentication and call registration".

// DigestChallenge is the server side of a challenge.
type DigestChallenge struct {
	Realm string
	Nonce string
	// Stale marks a re-challenge whose previous nonce aged out of the
	// registrar's replay window (RFC 2617 3.2.1): the client should
	// retry with the fresh nonce without re-prompting for credentials.
	Stale bool
}

// Header renders the WWW-Authenticate value.
func (c DigestChallenge) Header() string {
	if c.Stale {
		return fmt.Sprintf(`Digest realm="%s", nonce="%s", algorithm=MD5, stale=true`, c.Realm, c.Nonce)
	}
	return fmt.Sprintf(`Digest realm="%s", nonce="%s", algorithm=MD5`, c.Realm, c.Nonce)
}

// DigestCredentials is the client side of an answer.
type DigestCredentials struct {
	Username string
	Realm    string
	Nonce    string
	URI      string
	Response string
}

// Header renders the Authorization value.
func (c DigestCredentials) Header() string {
	return fmt.Sprintf(`Digest username="%s", realm="%s", nonce="%s", uri="%s", response="%s", algorithm=MD5`,
		c.Username, c.Realm, c.Nonce, c.URI, c.Response)
}

// ParseDigestChallenge extracts realm and nonce from a
// WWW-Authenticate header value.
func ParseDigestChallenge(v string) (DigestChallenge, bool) {
	params, ok := digestParams(v)
	if !ok {
		return DigestChallenge{}, false
	}
	c := DigestChallenge{
		Realm: params["realm"],
		Nonce: params["nonce"],
		Stale: strings.EqualFold(params["stale"], "true"),
	}
	return c, c.Realm != "" && c.Nonce != ""
}

// ParseDigestCredentials extracts the fields of an Authorization value.
func ParseDigestCredentials(v string) (DigestCredentials, bool) {
	params, ok := digestParams(v)
	if !ok {
		return DigestCredentials{}, false
	}
	c := DigestCredentials{
		Username: params["username"],
		Realm:    params["realm"],
		Nonce:    params["nonce"],
		URI:      params["uri"],
		Response: params["response"],
	}
	return c, c.Username != "" && c.Response != ""
}

func digestParams(v string) (map[string]string, bool) {
	rest, ok := strings.CutPrefix(strings.TrimSpace(v), "Digest ")
	if !ok {
		return nil, false
	}
	params := make(map[string]string)
	for _, part := range strings.Split(rest, ",") {
		k, val, found := strings.Cut(strings.TrimSpace(part), "=")
		if !found {
			continue
		}
		params[strings.ToLower(k)] = strings.Trim(val, `"`)
	}
	return params, true
}

// DigestResponse computes the expected response hash.
func DigestResponse(username, realm, password, nonce string, method Method, uri string) string {
	ha1 := md5hex(username + ":" + realm + ":" + password)
	ha2 := md5hex(string(method) + ":" + uri)
	return md5hex(ha1 + ":" + nonce + ":" + ha2)
}

// Answer builds credentials answering challenge c for the given
// request identity.
func (c DigestChallenge) Answer(username, password string, method Method, uri string) DigestCredentials {
	return DigestCredentials{
		Username: username,
		Realm:    c.Realm,
		Nonce:    c.Nonce,
		URI:      uri,
		Response: DigestResponse(username, c.Realm, password, c.Nonce, method, uri),
	}
}

// Verify checks credentials against the stored password for the
// request method. It requires the nonce to match the issued one.
func (c DigestChallenge) Verify(creds DigestCredentials, password string, method Method) bool {
	if creds.Nonce != c.Nonce || creds.Realm != c.Realm {
		return false
	}
	want := DigestResponse(creds.Username, c.Realm, password, c.Nonce, method, creds.URI)
	return creds.Response == want
}

func md5hex(s string) string {
	sum := md5.Sum([]byte(s))
	return fmt.Sprintf("%x", sum)
}

// DigestHA1 computes the reusable first hash of the digest scheme,
// MD5(username:realm:password). The registrar derives it once per user
// and caches it alongside issued nonces, so the per-REGISTER verify
// needs only the HA2 and response hashes.
func DigestHA1(username, realm, password string) string {
	return md5hex(username + ":" + realm + ":" + password)
}

// VerifyHA1 checks a digest response against a precomputed HA1 without
// allocating: both MD5 inputs are assembled in scratch (grown as
// needed and returned for reuse) and the hex digests land in stack
// arrays. This is the registrar's nonce-cache hit path.
func VerifyHA1(ha1, nonce string, method Method, uri, response string, scratch []byte) (bool, []byte) {
	// HA2 = MD5(method:uri)
	buf := append(scratch[:0], method...)
	buf = append(buf, ':')
	buf = append(buf, uri...)
	ha2sum := md5.Sum(buf)
	var ha2hex [2 * md5.Size]byte
	hexEncode(ha2hex[:], ha2sum[:])
	// response = MD5(ha1:nonce:ha2)
	buf = append(buf[:0], ha1...)
	buf = append(buf, ':')
	buf = append(buf, nonce...)
	buf = append(buf, ':')
	buf = append(buf, ha2hex[:]...)
	sum := md5.Sum(buf)
	var want [2 * md5.Size]byte
	hexEncode(want[:], sum[:])
	if len(response) != len(want) {
		return false, buf
	}
	for i := 0; i < len(want); i++ {
		if response[i] != want[i] {
			return false, buf
		}
	}
	return true, buf
}

const hexDigits = "0123456789abcdef"

func hexEncode(dst, src []byte) {
	for i, b := range src {
		dst[2*i] = hexDigits[b>>4]
		dst[2*i+1] = hexDigits[b&0x0f]
	}
}
