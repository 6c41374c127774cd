package registry

// Protocol message types for the SOAP binding — the ebRS request protocols
// of thesis §2.2.3 (SubmitObjectsRequest, UpdateObjectsRequest,
// ApproveObjectsRequest, DeprecateObjectsRequest,
// UndeprecateObjectsRequest, RemoveObjectsRequest, AdhocQueryRequest,
// RelocateObjectsRequest) plus the authentication handshake and the
// load-balanced binding discovery call.

// SubmitObjectsRequest publishes new objects.
type SubmitObjectsRequest struct {
	XMLName struct{}     `xml:"SubmitObjectsRequest"`
	Session string       `xml:"session,attr,omitempty"`
	Objects []WireObject `xml:"RegistryObjectList>RegistryObject"`
}

// UpdateObjectsRequest replaces previously submitted objects.
type UpdateObjectsRequest struct {
	XMLName struct{}     `xml:"UpdateObjectsRequest"`
	Session string       `xml:"session,attr,omitempty"`
	Objects []WireObject `xml:"RegistryObjectList>RegistryObject"`
}

// ObjectRefRequest drives status transitions, removal and relocation.
type ObjectRefRequest struct {
	Session string   `xml:"session,attr,omitempty"`
	IDs     []string `xml:"ObjectRef"`
}

// ApproveObjectsRequest approves objects.
type ApproveObjectsRequest struct {
	XMLName struct{} `xml:"ApproveObjectsRequest"`
	ObjectRefRequest
}

// DeprecateObjectsRequest deprecates objects.
type DeprecateObjectsRequest struct {
	XMLName struct{} `xml:"DeprecateObjectsRequest"`
	ObjectRefRequest
}

// UndeprecateObjectsRequest reverses deprecation.
type UndeprecateObjectsRequest struct {
	XMLName struct{} `xml:"UndeprecateObjectsRequest"`
	ObjectRefRequest
}

// RemoveObjectsRequest deletes objects.
type RemoveObjectsRequest struct {
	XMLName struct{} `xml:"RemoveObjectsRequest"`
	ObjectRefRequest
}

// RelocateObjectsRequest retargets objects' home registry.
type RelocateObjectsRequest struct {
	XMLName struct{} `xml:"RelocateObjectsRequest"`
	Home    string   `xml:"home,attr"`
	ObjectRefRequest
}

// RegistryResponse acknowledges a life-cycle request, echoing the affected
// object ids (the thesis's AccessRegistry API surfaces these as "key was
// urn:uuid:...").
type RegistryResponse struct {
	XMLName struct{} `xml:"RegistryResponse"`
	Status  string   `xml:"status,attr"`
	IDs     []string `xml:"ObjectRef,omitempty"`
}

// GetObjectRequest retrieves one object by id.
type GetObjectRequest struct {
	XMLName struct{} `xml:"GetObjectRequest"`
	ID      string   `xml:"id,attr"`
}

// GetObjectResponse carries the object.
type GetObjectResponse struct {
	XMLName struct{}   `xml:"GetObjectResponse"`
	Object  WireObject `xml:"RegistryObject"`
}

// WireParam is one named query parameter value.
type WireParam struct {
	Name  string `xml:"name,attr"`
	Value string `xml:"value,attr"`
	// Type is "string" (default) or "number".
	Type string `xml:"type,attr,omitempty"`
}

// AdhocQueryWireRequest runs an ad-hoc query.
type AdhocQueryWireRequest struct {
	XMLName    struct{}    `xml:"AdhocQueryRequest"`
	Syntax     string      `xml:"querySyntax,attr,omitempty"`
	StartIndex int         `xml:"startIndex,attr,omitempty"`
	MaxResults int         `xml:"maxResults,attr,omitempty"`
	Query      string      `xml:"QueryExpression"`
	Params     []WireParam `xml:"Param,omitempty"`
	// StoredQueryName invokes a stored query instead of QueryExpression.
	StoredQueryName string `xml:"storedQuery,attr,omitempty"`
}

// WireCell is one result cell; Null distinguishes SQL NULL from "".
type WireCell struct {
	Null  bool   `xml:"null,attr,omitempty"`
	Value string `xml:",chardata"`
}

// WireRow is one result row.
type WireRow struct {
	Cells []WireCell `xml:"Cell"`
}

// AdhocQueryWireResponse returns the matched window plus iterative
// parameters.
type AdhocQueryWireResponse struct {
	XMLName           struct{}  `xml:"AdhocQueryResponse"`
	StartIndex        int       `xml:"startIndex,attr"`
	TotalResultsCount int       `xml:"totalResultCount,attr"`
	Columns           []string  `xml:"Column"`
	Rows              []WireRow `xml:"Row"`
}

// FindObjectsRequest is the browse/drill-down call behind the Web UI
// search (name LIKE pattern within one object class).
type FindObjectsRequest struct {
	XMLName     struct{} `xml:"FindObjectsRequest"`
	Kind        string   `xml:"kind,attr"`
	NamePattern string   `xml:"namePattern,attr"`
}

// FindObjectsResponse lists matches.
type FindObjectsResponse struct {
	XMLName struct{}     `xml:"FindObjectsResponse"`
	Objects []WireObject `xml:"RegistryObjectList>RegistryObject"`
}

// GetBindingsRequest performs the constrained discovery of Fig. 3.4:
// resolve a service (by id or name) to its arranged access URIs.
type GetBindingsRequest struct {
	XMLName     struct{} `xml:"GetBindingsRequest"`
	ServiceID   string   `xml:"serviceId,attr,omitempty"`
	ServiceName string   `xml:"serviceName,attr,omitempty"`
}

// GetBindingsResponse returns the arranged URIs and a decision summary.
type GetBindingsResponse struct {
	XMLName    struct{} `xml:"GetBindingsResponse" json:"-"`
	URIs       []string `xml:"AccessURI" json:"uris"`
	Filtered   bool     `xml:"filtered,attr" json:"filtered"`
	Eligible   int      `xml:"eligible,attr" json:"eligible"`
	Unknown    int      `xml:"unknown,attr" json:"unknown"`
	Ineligible int      `xml:"ineligible,attr" json:"ineligible"`
	WindowOK   bool     `xml:"timeWindowOk,attr" json:"windowOk"`
}

// RegisterRequest runs the user registration wizard over the wire.
type RegisterRequest struct {
	XMLName   struct{} `xml:"RegisterRequest"`
	Alias     string   `xml:"alias,attr"`
	Password  string   `xml:"password,attr"`
	FirstName string   `xml:"firstName,attr,omitempty"`
	LastName  string   `xml:"lastName,attr,omitempty"`
}

// RegisterResponse returns the generated credentials (PEM, base64-safe in
// XML chardata) and the new user id.
type RegisterResponse struct {
	XMLName struct{} `xml:"RegisterResponse"`
	UserID  string   `xml:"userId,attr"`
	CertPEM string   `xml:"Certificate"`
	KeyPEM  string   `xml:"PrivateKey"`
}

// ChallengeRequest asks for a login nonce.
type ChallengeRequest struct {
	XMLName struct{} `xml:"ChallengeRequest"`
	Alias   string   `xml:"alias,attr"`
}

// ChallengeResponse carries the nonce (base64).
type ChallengeResponse struct {
	XMLName struct{} `xml:"ChallengeResponse"`
	Nonce   string   `xml:"Nonce"`
}

// LoginRequest presents the signed nonce.
type LoginRequest struct {
	XMLName   struct{} `xml:"LoginRequest"`
	Alias     string   `xml:"alias,attr"`
	Signature string   `xml:"Signature"` // base64
}

// LoginResponse opens a session.
type LoginResponse struct {
	XMLName struct{} `xml:"LoginResponse"`
	Token   string   `xml:"token,attr"`
	UserID  string   `xml:"userId,attr"`
}
