package sip

import (
	"fmt"
	"strconv"
	"strings"
)

// Method is a SIP request method.
type Method string

// The methods the call flow uses.
const (
	INVITE   Method = "INVITE"
	ACK      Method = "ACK"
	BYE      Method = "BYE"
	CANCEL   Method = "CANCEL"
	REGISTER Method = "REGISTER"
	OPTIONS  Method = "OPTIONS"
	// MESSAGE is RFC 3428 instant messaging — the PBX "SMS messaging"
	// capability the paper lists among Asterisk's features.
	MESSAGE Method = "MESSAGE"
)

// Standard status codes used by the flow in Fig. 2 and the error paths.
const (
	StatusTrying             = 100
	StatusRinging            = 180
	StatusOK                 = 200
	StatusAccepted           = 202
	StatusMovedTemporarily   = 302
	StatusBadRequest         = 400
	StatusUnauthorized       = 401
	StatusNotFound           = 404
	StatusRequestTimeout     = 408
	StatusBusyHere           = 486
	StatusRequestTerminated  = 487
	StatusNotAcceptableHere  = 488
	StatusTemporarilyDenied  = 403
	StatusInternalError      = 500
	StatusServiceUnavailable = 503
	StatusDeclined           = 603
)

// ReasonPhrase returns the canonical reason phrase for a status code.
func ReasonPhrase(code int) string {
	switch code {
	case StatusTrying:
		return "Trying"
	case StatusRinging:
		return "Ringing"
	case StatusOK:
		return "OK"
	case StatusAccepted:
		return "Accepted"
	case StatusMovedTemporarily:
		return "Moved Temporarily"
	case StatusBadRequest:
		return "Bad Request"
	case StatusUnauthorized:
		return "Unauthorized"
	case StatusTemporarilyDenied:
		return "Forbidden"
	case StatusNotFound:
		return "Not Found"
	case StatusRequestTimeout:
		return "Request Timeout"
	case StatusBusyHere:
		return "Busy Here"
	case StatusRequestTerminated:
		return "Request Terminated"
	case StatusNotAcceptableHere:
		return "Not Acceptable Here"
	case StatusInternalError:
		return "Server Internal Error"
	case StatusServiceUnavailable:
		return "Service Unavailable"
	case StatusDeclined:
		return "Decline"
	default:
		return "Unknown"
	}
}

// Via is a Via header entry; the branch parameter identifies the
// transaction and SentBy the sender's address.
type Via struct {
	Transport string // "UDP"
	SentBy    string // host:port
	Branch    string
}

// BranchPrefix is the RFC 3261 magic cookie every branch must carry.
const BranchPrefix = "z9hG4bK"

// AppendTo appends the wire form of the Via value to dst.
func (v Via) AppendTo(dst []byte) []byte {
	dst = append(dst, "SIP/2.0/"...)
	if v.Transport == "" {
		dst = append(dst, "UDP"...)
	} else {
		dst = append(dst, v.Transport...)
	}
	dst = append(dst, ' ')
	dst = append(dst, v.SentBy...)
	if v.Branch != "" {
		dst = append(dst, ";branch="...)
		dst = append(dst, v.Branch...)
	}
	return dst
}

func (v Via) String() string { return string(v.AppendTo(nil)) }

// CSeq pairs the command sequence number with its method.
type CSeq struct {
	Seq    uint32
	Method Method
}

func (c CSeq) String() string { return fmt.Sprintf("%d %s", c.Seq, c.Method) }

// Header is a generic header preserved through parsing for headers the
// typed model does not interpret.
type Header struct {
	Name  string
	Value string
}

// Message is a SIP request or response. A message is a request when
// Method != "" and a response when StatusCode != 0; exactly one holds
// for a valid message.
type Message struct {
	// Request start line.
	Method     Method
	RequestURI URI
	// Response start line.
	StatusCode int
	ReasonStr  string
	// Headers.
	Via      []Via // topmost first
	From, To NameAddr
	CallID   string
	CSeq     CSeq
	Contact  *NameAddr
	// ContactStar marks the RFC 3261 10.2.2 wildcard "Contact: *",
	// which (with Expires: 0) unregisters every contact of the
	// address-of-record. Mutually exclusive with Contact.
	ContactStar bool
	// ContactExpires is the per-Contact ";expires=" parameter
	// (seconds), -1 when absent. It overrides the Expires header for
	// that binding (RFC 3261 10.2.1.1).
	ContactExpires int
	MaxForwards    int
	Expires        int // -1 when absent
	ContentType    string
	// RetryAfter is the Retry-After value in seconds on 503 (and other
	// rejection) responses — the overload-control feedback channel of
	// RFC 3261 21.5.4. Zero means the header is absent: a zero-second
	// hint carries no information, so it is never emitted.
	RetryAfter int
	// WWWAuthenticate and Authorization carry digest auth material.
	WWWAuthenticate string
	Authorization   string
	// UserAgent / Server product token.
	UserAgent string
	// Other preserves unrecognized headers verbatim.
	Other []Header
	// Body is the payload (SDP in this system).
	Body []byte
}

// OverloadWindowHeader is the extension header carrying the PBX's
// rate/window-based overload feedback (RFC 7339-style explicit
// control): the number of seconds an upstream sender should pace or
// withhold new work toward this server. It rides in Other, so the
// parser and serializer need no special handling.
const OverloadWindowHeader = "X-Overload-Window"

// OverloadWindow returns the X-Overload-Window value in seconds, or 0
// when the header is absent or malformed.
func (m *Message) OverloadWindow() int {
	for _, h := range m.Other {
		if !strings.EqualFold(h.Name, OverloadWindowHeader) {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSpace(h.Value))
		if err != nil || n < 0 {
			return 0
		}
		return n
	}
	return 0
}

// SetOverloadWindow stamps the X-Overload-Window header (seconds).
// Non-positive values are ignored: no window means no header.
func (m *Message) SetOverloadWindow(secs int) {
	if secs <= 0 {
		return
	}
	m.Other = append(m.Other, Header{Name: OverloadWindowHeader, Value: strconv.Itoa(secs)})
}

// IsRequest reports whether m is a request.
func (m *Message) IsRequest() bool { return m.Method != "" && m.StatusCode == 0 }

// IsResponse reports whether m is a response.
func (m *Message) IsResponse() bool { return m.StatusCode != 0 }

// Reason returns the response reason phrase, defaulting to the
// canonical phrase for the status code.
func (m *Message) Reason() string {
	if m.ReasonStr != "" {
		return m.ReasonStr
	}
	return ReasonPhrase(m.StatusCode)
}

// TopVia returns the first Via, or nil if none.
func (m *Message) TopVia() *Via {
	if len(m.Via) == 0 {
		return nil
	}
	return &m.Via[0]
}

// TransactionKey identifies the transaction a message belongs to per
// the RFC 3261 (17.1.3/17.2.3) branch rule: the top Via branch plus
// the CSeq method. ACK and CANCEL requests keep their own method here
// (a CANCEL is its own transaction); use MatchingInviteKey to locate
// the INVITE transaction they refer to.
func (m *Message) TransactionKey() string {
	branch := ""
	if v := m.TopVia(); v != nil {
		branch = v.Branch
	}
	return branch + "|" + string(m.CSeq.Method)
}

// MatchingInviteKey returns the key of the INVITE transaction an ACK
// or CANCEL request targets: same branch, method INVITE.
func (m *Message) MatchingInviteKey() string {
	branch := ""
	if v := m.TopVia(); v != nil {
		branch = v.Branch
	}
	return branch + "|" + string(INVITE)
}

// DialogID returns the dialog identifier from this message's
// perspective: Call-ID plus local/remote tags. For a UAS, local is the
// To tag; for a UAC, local is the From tag.
func (m *Message) DialogID(uas bool) string {
	if uas {
		return m.CallID + "|" + m.To.Tag + "|" + m.From.Tag
	}
	return m.CallID + "|" + m.From.Tag + "|" + m.To.Tag
}

// NewRequest builds a request with the mandatory headers filled in.
func NewRequest(method Method, uri URI, from, to NameAddr, callID string, seq uint32) *Message {
	return &Message{
		Method:         method,
		RequestURI:     uri,
		From:           from,
		To:             to,
		CallID:         callID,
		CSeq:           CSeq{Seq: seq, Method: method},
		MaxForwards:    70,
		Expires:        -1,
		ContactExpires: -1,
	}
}

// Response builds a response to request req with the given status,
// copying the headers RFC 3261 8.2.6.2 requires (Via chain, From, To,
// Call-ID, CSeq). The To tag is left as the request had it; UAS code
// sets its tag explicitly.
func (req *Message) Response(status int) *Message {
	return &Message{
		StatusCode:     status,
		Via:            append([]Via(nil), req.Via...),
		From:           req.From,
		To:             req.To,
		CallID:         req.CallID,
		CSeq:           req.CSeq,
		Expires:        -1,
		ContactExpires: -1,
	}
}

// appendHeader appends "Name: value\r\n".
func appendHeader(dst []byte, name, value string) []byte {
	dst = append(dst, name...)
	dst = append(dst, ": "...)
	dst = append(dst, value...)
	return append(dst, "\r\n"...)
}

// appendIntHeader appends "Name: n\r\n".
func appendIntHeader(dst []byte, name string, n int) []byte {
	dst = append(dst, name...)
	dst = append(dst, ": "...)
	dst = strconv.AppendInt(dst, int64(n), 10)
	return append(dst, "\r\n"...)
}

// Append renders the message in wire form, appended to dst. It builds
// the message with plain appends (no fmt, no intermediate builder), so
// marshalling into a reused buffer does not allocate.
func (m *Message) Append(dst []byte) []byte {
	if m.IsRequest() {
		dst = append(dst, string(m.Method)...)
		dst = append(dst, ' ')
		dst = m.RequestURI.AppendTo(dst)
		dst = append(dst, " SIP/2.0\r\n"...)
	} else {
		dst = append(dst, "SIP/2.0 "...)
		dst = strconv.AppendInt(dst, int64(m.StatusCode), 10)
		dst = append(dst, ' ')
		dst = append(dst, m.Reason()...)
		dst = append(dst, "\r\n"...)
	}
	for i := range m.Via {
		dst = append(dst, "Via: "...)
		dst = m.Via[i].AppendTo(dst)
		dst = append(dst, "\r\n"...)
	}
	if m.MaxForwards > 0 {
		dst = appendIntHeader(dst, "Max-Forwards", m.MaxForwards)
	}
	dst = append(dst, "From: "...)
	dst = m.From.AppendTo(dst)
	dst = append(dst, "\r\nTo: "...)
	dst = m.To.AppendTo(dst)
	dst = append(dst, "\r\n"...)
	dst = appendHeader(dst, "Call-ID", m.CallID)
	dst = append(dst, "CSeq: "...)
	dst = strconv.AppendUint(dst, uint64(m.CSeq.Seq), 10)
	dst = append(dst, ' ')
	dst = append(dst, string(m.CSeq.Method)...)
	dst = append(dst, "\r\n"...)
	if m.ContactStar {
		dst = append(dst, "Contact: *\r\n"...)
	} else if m.Contact != nil {
		dst = append(dst, "Contact: "...)
		dst = m.Contact.AppendTo(dst)
		if m.ContactExpires >= 0 {
			dst = append(dst, ";expires="...)
			dst = strconv.AppendInt(dst, int64(m.ContactExpires), 10)
		}
		dst = append(dst, "\r\n"...)
	}
	if m.Expires >= 0 {
		dst = appendIntHeader(dst, "Expires", m.Expires)
	}
	if m.RetryAfter > 0 {
		dst = appendIntHeader(dst, "Retry-After", m.RetryAfter)
	}
	if m.WWWAuthenticate != "" {
		dst = appendHeader(dst, "WWW-Authenticate", m.WWWAuthenticate)
	}
	if m.Authorization != "" {
		dst = appendHeader(dst, "Authorization", m.Authorization)
	}
	if m.UserAgent != "" {
		dst = appendHeader(dst, "User-Agent", m.UserAgent)
	}
	for _, h := range m.Other {
		dst = appendHeader(dst, h.Name, h.Value)
	}
	if m.ContentType != "" && len(m.Body) > 0 {
		dst = appendHeader(dst, "Content-Type", m.ContentType)
	}
	dst = appendIntHeader(dst, "Content-Length", len(m.Body))
	dst = append(dst, "\r\n"...)
	return append(dst, m.Body...)
}

// Marshal renders the message in wire form.
func (m *Message) Marshal() []byte { return m.Append(nil) }

func (m *Message) String() string {
	if m.IsRequest() {
		return fmt.Sprintf("%s %s (%s)", m.Method, m.RequestURI.String(), m.CallID)
	}
	return fmt.Sprintf("%d %s (%s %s)", m.StatusCode, m.Reason(), m.CSeq.Method, m.CallID)
}

// parseCSeq parses "42 INVITE".
func parseCSeq(s string) (CSeq, error) {
	numStr, method, ok := strings.Cut(strings.TrimSpace(s), " ")
	if !ok {
		return CSeq{}, fmt.Errorf("sip: malformed CSeq %q", s)
	}
	n, err := strconv.ParseUint(strings.TrimSpace(numStr), 10, 32)
	if err != nil {
		return CSeq{}, fmt.Errorf("sip: malformed CSeq %q", s)
	}
	return CSeq{Seq: uint32(n), Method: Method(strings.TrimSpace(method))}, nil
}

// parseVia parses "SIP/2.0/UDP host:port;branch=...".
func parseVia(s string) (Via, error) {
	var v Via
	rest, ok := strings.CutPrefix(strings.TrimSpace(s), "SIP/2.0/")
	if !ok {
		return v, fmt.Errorf("sip: malformed Via %q", s)
	}
	transport, rest, ok := strings.Cut(rest, " ")
	if !ok {
		return v, fmt.Errorf("sip: malformed Via %q", s)
	}
	v.Transport = transport
	sentBy, params, _ := strings.Cut(rest, ";")
	v.SentBy = strings.TrimSpace(sentBy)
	if v.SentBy == "" {
		return v, fmt.Errorf("sip: malformed Via %q", s)
	}
	for params != "" {
		var p string
		p, params, _ = strings.Cut(params, ";")
		k, val, _ := strings.Cut(strings.TrimSpace(p), "=")
		if strings.EqualFold(k, "branch") {
			v.Branch = val
		}
	}
	return v, nil
}
