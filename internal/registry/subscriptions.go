package registry

import (
	"fmt"

	"repro/internal/events"
	"repro/internal/rim"
	"repro/internal/soap"
)

// Subscription support (thesis §1.3.2.5, Fig. 1.20): clients register a
// selector (object type, name pattern, event kinds) and a delivery action
// — a Web Service endpoint that receives SOAP RegistryNotification
// messages, or an e-mail address whose messages land in the registry's
// outbox (the simulation analog of SMTP delivery).

// SubscribeRequest creates a subscription over the wire.
type SubscribeRequest struct {
	XMLName     struct{} `xml:"SubscribeRequest"`
	Session     string   `xml:"session,attr"`
	ObjectKind  string   `xml:"objectKind,attr,omitempty"`  // e.g. "Service"
	NamePattern string   `xml:"namePattern,attr,omitempty"` // SQL LIKE
	EventTypes  []string `xml:"EventType,omitempty"`
	// Exactly one delivery target:
	NotifyURI string `xml:"notifyURI,attr,omitempty"`
	Email     string `xml:"email,attr,omitempty"`
}

// SubscribeResponse returns the subscription id.
type SubscribeResponse struct {
	XMLName        struct{} `xml:"SubscribeResponse"`
	SubscriptionID string   `xml:"subscriptionId,attr"`
}

// UnsubscribeRequest cancels a subscription.
type UnsubscribeRequest struct {
	XMLName        struct{} `xml:"UnsubscribeRequest"`
	Session        string   `xml:"session,attr"`
	SubscriptionID string   `xml:"subscriptionId,attr"`
}

// Subscribe registers a subscription for the authenticated user and
// returns its id. Exactly one of notifyURI or email must be given.
func (r *Registry) Subscribe(userID string, sel events.Selector, notifyURI, email string) (string, error) {
	if (notifyURI == "") == (email == "") {
		return "", fmt.Errorf("registry: subscription needs exactly one of notifyURI or email")
	}
	var action events.Deliverer
	if notifyURI != "" {
		action = &events.ServiceDeliverer{EndpointURI: notifyURI}
	} else {
		d := &events.EmailDeliverer{Address: email}
		r.outboxMu.Lock()
		r.outboxes = append(r.outboxes, d)
		r.outboxMu.Unlock()
		action = d
	}
	return r.Bus.Subscribe(userID, sel, action), nil
}

// Unsubscribe cancels a subscription, reporting whether it existed.
func (r *Registry) Unsubscribe(id string) bool { return r.Bus.Unsubscribe(id) }

// EmailOutbox returns every email-notification line delivered so far —
// observable mail for tests and the admin UI.
func (r *Registry) EmailOutbox() []string {
	r.outboxMu.Lock()
	defer r.outboxMu.Unlock()
	var out []string
	for _, d := range r.outboxes {
		out = append(out, d.Outbox()...)
	}
	return out
}

func (r *Registry) doSubscribe(req *SubscribeRequest) (interface{}, error) {
	ctx, err := r.sessionOrFault(req.Session)
	if err != nil {
		return nil, err
	}
	sel := events.Selector{NamePattern: req.NamePattern}
	if req.ObjectKind != "" {
		t, err := KindType(req.ObjectKind)
		if err != nil {
			return nil, soap.ClientFault("%v", err)
		}
		sel.ObjectType = t
	}
	for _, e := range req.EventTypes {
		sel.EventTypes = append(sel.EventTypes, rim.EventType(e))
	}
	id, err := r.Subscribe(ctx.UserID, sel, req.NotifyURI, req.Email)
	if err != nil {
		return nil, soap.ClientFault("%v", err)
	}
	return &SubscribeResponse{SubscriptionID: id}, nil
}

func (r *Registry) doUnsubscribe(req *UnsubscribeRequest) (interface{}, error) {
	if _, err := r.sessionOrFault(req.Session); err != nil {
		return nil, err
	}
	if !r.Unsubscribe(req.SubscriptionID) {
		return nil, soap.ClientFault("unknown subscription %s", req.SubscriptionID)
	}
	return &RegistryResponse{Status: "Success", IDs: []string{req.SubscriptionID}}, nil
}
