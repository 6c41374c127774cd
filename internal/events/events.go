// Package events implements the registry's content-based event
// subscription and notification feature (thesis §1.3.2.5, Fig. 1.20): a
// client creates a subscription holding a selector that picks events of
// interest and an action that delivers notifications — to a registered Web
// Service endpoint or to an e-mail address. When registry contents change,
// matching subscribers receive the changed objects.
package events

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/rim"
	"repro/internal/soap"
	"repro/internal/store"
)

// Selector decides which change events a subscription cares about.
type Selector struct {
	// ObjectType restricts matching to one class; empty matches all.
	ObjectType rim.ObjectType
	// NamePattern is a SQL-LIKE pattern over the object name; empty
	// matches all.
	NamePattern string
	// EventTypes restricts the life-cycle actions; empty matches all.
	EventTypes []rim.EventType
}

// Matches reports whether the selector admits the (event, object) pair.
func (s Selector) Matches(kind rim.EventType, obj rim.Object) bool {
	if len(s.EventTypes) > 0 {
		ok := false
		for _, k := range s.EventTypes {
			if k == kind {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if s.ObjectType != "" && obj.Base().ObjectType != s.ObjectType {
		return false
	}
	if s.NamePattern != "" && !store.MatchLike(obj.Base().Name.String(), s.NamePattern) {
		return false
	}
	return true
}

// Notification is what subscribers receive.
type Notification struct {
	SubscriptionID string
	EventKind      rim.EventType
	Objects        []rim.Object
}

// Deliverer delivers notifications to the subscriber's chosen sink.
type Deliverer interface {
	Deliver(n Notification) error
}

// Subscription pairs a selector with a delivery action.
type Subscription struct {
	ID       string
	OwnerID  string
	Selector Selector
	Action   Deliverer
}

// Bus registers subscriptions and fans out change notifications.
type Bus struct {
	mu   sync.RWMutex
	subs map[string]*Subscription
	// failures counts delivery errors per subscription for observability.
	failures map[string]int
}

// NewBus creates an empty bus.
func NewBus() *Bus {
	return &Bus{subs: make(map[string]*Subscription), failures: make(map[string]int)}
}

// Subscribe registers a subscription and returns its id.
func (b *Bus) Subscribe(ownerID string, sel Selector, action Deliverer) string {
	sub := &Subscription{ID: rim.NewUUID(), OwnerID: ownerID, Selector: sel, Action: action}
	b.mu.Lock()
	b.subs[sub.ID] = sub
	b.mu.Unlock()
	return sub.ID
}

// Unsubscribe removes a subscription, reporting whether it existed.
func (b *Bus) Unsubscribe(id string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.subs[id]
	delete(b.subs, id)
	return ok
}

// Len returns the number of live subscriptions.
func (b *Bus) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.subs)
}

// Failures reports accumulated delivery failures for a subscription.
func (b *Bus) Failures(id string) int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.failures[id]
}

// Publish notifies every matching subscription about a change to objs.
// Delivery is synchronous and failures are counted, not fatal. The
// life-cycle manager publishes outside its write bracket, and a Web
// Service delivery gives up after DeliveryTimeout, so a subscriber that
// never answers delays only the write whose change it matched.
func (b *Bus) Publish(kind rim.EventType, objs ...rim.Object) {
	b.mu.RLock()
	subs := make([]*Subscription, 0, len(b.subs))
	for _, s := range b.subs {
		subs = append(subs, s)
	}
	b.mu.RUnlock()

	for _, sub := range subs {
		var matched []rim.Object
		for _, o := range objs {
			if sub.Selector.Matches(kind, o) {
				matched = append(matched, o)
			}
		}
		if len(matched) == 0 {
			continue
		}
		err := sub.Action.Deliver(Notification{SubscriptionID: sub.ID, EventKind: kind, Objects: matched})
		if err != nil {
			b.mu.Lock()
			b.failures[sub.ID]++
			b.mu.Unlock()
		}
	}
}

// EmailDeliverer appends rendered notifications to an in-memory outbox —
// the simulated analog of "delivery of notifications to registered e-mail
// address" (Table 1.1).
type EmailDeliverer struct {
	Address string

	mu     sync.Mutex
	outbox []string
}

// Deliver implements Deliverer.
func (e *EmailDeliverer) Deliver(n Notification) error {
	var names []string
	for _, o := range n.Objects {
		names = append(names, o.Base().Name.String())
	}
	e.mu.Lock()
	e.outbox = append(e.outbox, fmt.Sprintf("To: %s | %s: %v", e.Address, n.EventKind, names))
	e.mu.Unlock()
	return nil
}

// Outbox returns the messages delivered so far.
func (e *EmailDeliverer) Outbox() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.outbox...)
}

// ServiceDeliverer POSTs notifications to a registered Web Service
// endpoint as SOAP messages (Table 1.1, "Delivery of notifications to
// registered Web service").
type ServiceDeliverer struct {
	EndpointURI string
	Client      soapPoster
}

// soapPoster abstracts soap.Post for testability.
type soapPoster interface {
	Post(url string, req, resp interface{}) error
}

// DeliveryTimeout bounds one notification post to a subscriber's
// endpoint, connection and reply included. The writer whose change matched
// the subscription waits for the post, so this is the longest a subscriber
// that never answers can hold it up.
const DeliveryTimeout = 5 * time.Second

var deliveryClient = &http.Client{Timeout: DeliveryTimeout}

// SOAPPoster is the production soapPoster.
type SOAPPoster struct{}

// Post implements soapPoster over soap.Post, bounded by DeliveryTimeout.
func (SOAPPoster) Post(url string, req, resp interface{}) error {
	return soap.Post(deliveryClient, url, req, resp)
}

// WireNotification is the XML payload a ServiceDeliverer sends.
type WireNotification struct {
	XMLName        struct{} `xml:"RegistryNotification"`
	SubscriptionID string   `xml:"subscription"`
	EventKind      string   `xml:"eventType"`
	ObjectIDs      []string `xml:"objectId"`
}

// Deliver implements Deliverer.
func (s *ServiceDeliverer) Deliver(n Notification) error {
	poster := s.Client
	if poster == nil {
		poster = SOAPPoster{}
	}
	wire := WireNotification{SubscriptionID: n.SubscriptionID, EventKind: string(n.EventKind)}
	for _, o := range n.Objects {
		wire.ObjectIDs = append(wire.ObjectIDs, o.Base().ID)
	}
	return poster.Post(s.EndpointURI, &wire, nil)
}

// ChanDeliverer sends notifications to a channel; tests and in-process
// listeners use it.
type ChanDeliverer chan Notification

// Deliver implements Deliverer without blocking: a full channel counts as
// a delivery failure.
func (c ChanDeliverer) Deliver(n Notification) error {
	select {
	case c <- n:
		return nil
	default:
		return fmt.Errorf("events: listener queue full")
	}
}
