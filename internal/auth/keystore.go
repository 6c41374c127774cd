package auth

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Keystore is the client-side credential store of thesis §3.4.3 — the
// analog of keystore.jks that the KeystoreMover populates. Entries are
// keyed by alias; the whole store is encrypted at rest with a key derived
// from the keystore password (the thesis's default is "ebxmlrr").
type Keystore struct {
	mu      sync.Mutex
	entries map[string]*Credentials
}

// DefaultKeystorePassword is freebXML's out-of-the-box keystore password.
const DefaultKeystorePassword = "ebxmlrr"

// NewKeystore creates an empty keystore.
func NewKeystore() *Keystore {
	return &Keystore{entries: make(map[string]*Credentials)}
}

// Import stores credentials under their alias, replacing an existing entry
// (the KeystoreMover's -destinationAlias semantics).
func (k *Keystore) Import(c *Credentials) {
	k.mu.Lock()
	defer k.mu.Unlock()
	cp := *c
	cp.CertPEM = append([]byte(nil), c.CertPEM...)
	cp.KeyPEM = append([]byte(nil), c.KeyPEM...)
	k.entries[c.Alias] = &cp
}

// Get retrieves the credentials for alias.
func (k *Keystore) Get(alias string) (*Credentials, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	c, ok := k.entries[alias]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownAlias, alias)
	}
	cp := *c
	return &cp, nil
}

// Aliases lists stored aliases in sorted order.
func (k *Keystore) Aliases() []string {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]string, 0, len(k.entries))
	for a := range k.entries {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Delete removes an alias, reporting whether it was present.
func (k *Keystore) Delete(alias string) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	_, ok := k.entries[alias]
	delete(k.entries, alias)
	return ok
}

// keystoreFile is the serialized layout.
type keystoreFile struct {
	Salt  []byte `json:"salt"`
	Nonce []byte `json:"nonce"`
	Data  []byte `json:"data"` // AES-GCM sealed JSON of entries
}

// deriveKey stretches the password with an iterated salted SHA-256 —
// stdlib-only key derivation adequate for the simulated keystore.
func deriveKey(password string, salt []byte) []byte {
	h := sha256.Sum256(append([]byte(password), salt...))
	for i := 0; i < 4096; i++ {
		h = sha256.Sum256(h[:])
	}
	return h[:]
}

// Save encrypts the keystore with password and writes it to w.
func (k *Keystore) Save(w io.Writer, password string) error {
	k.mu.Lock()
	plain, err := json.Marshal(k.entries)
	k.mu.Unlock()
	if err != nil {
		return fmt.Errorf("auth: marshal keystore: %w", err)
	}
	salt := make([]byte, 16)
	if _, err := rand.Read(salt); err != nil {
		return fmt.Errorf("auth: salt: %w", err)
	}
	block, err := aes.NewCipher(deriveKey(password, salt))
	if err != nil {
		return err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return err
	}
	nonce := make([]byte, gcm.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return fmt.Errorf("auth: nonce: %w", err)
	}
	sealed := gcm.Seal(nil, nonce, plain, nil)
	return json.NewEncoder(w).Encode(&keystoreFile{Salt: salt, Nonce: nonce, Data: sealed})
}

// Load decrypts a keystore written by Save, replacing current entries. A
// wrong password or a file Save could not have written yields an error and
// leaves the entries as they were.
func (k *Keystore) Load(r io.Reader, password string) error {
	var f keystoreFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return fmt.Errorf("auth: decode keystore: %w", err)
	}
	block, err := aes.NewCipher(deriveKey(password, f.Salt))
	if err != nil {
		return err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return err
	}
	if len(f.Nonce) != gcm.NonceSize() {
		return fmt.Errorf("auth: corrupt keystore nonce")
	}
	plain, err := gcm.Open(nil, f.Nonce, f.Data, nil)
	if err != nil {
		return fmt.Errorf("auth: keystore password rejected: %w", err)
	}
	entries := make(map[string]*Credentials)
	if err := json.Unmarshal(plain, &entries); err != nil {
		return fmt.Errorf("auth: decode entries: %w", err)
	}
	// Save writes each entry under its own alias; anything else is not a
	// keystore, and a null entry would fail every later Get.
	for alias, c := range entries {
		if c == nil || c.Alias != alias {
			return fmt.Errorf("auth: decode entries: entry %q is null or names another alias", alias)
		}
	}
	k.mu.Lock()
	k.entries = entries
	k.mu.Unlock()
	return nil
}
