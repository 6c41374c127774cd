package auth

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzKeystoreLoad holds the keystore decoder to its contract on any
// bytes: Load fails and leaves the entries it had, or it gives entries
// that a Save→Load round trip returns unchanged and that Get can read.
// Each input is tried twice: as a keystore file, and as the plaintext
// sealed under a fixed password, so inputs reach the entries' JSON decode
// past GCM, which no fuzzed ciphertext would.
func FuzzKeystoreLoad(f *testing.F) {
	const password = "fuzz"
	salt := bytes.Repeat([]byte{7}, 16)
	block, err := aes.NewCipher(deriveKey(password, salt))
	if err != nil {
		f.Fatal(err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		f.Fatal(err)
	}
	nonce := make([]byte, gcm.NonceSize())
	seal := func(plain []byte) []byte {
		file, err := json.Marshal(&keystoreFile{Salt: salt, Nonce: nonce, Data: gcm.Seal(nil, nonce, plain, nil)})
		if err != nil {
			f.Fatal(err)
		}
		return file
	}

	f.Add([]byte(`{"alice":{"Alias":"alice","CertPEM":"AQI=","KeyPEM":null}}`))
	f.Add([]byte(`{"alice":null}`))
	f.Add([]byte(`{"salt":"AAAA","nonce":"AAAA","data":"AAAA"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, file := range [][]byte{data, seal(data)} {
			k := NewKeystore()
			k.Import(&Credentials{Alias: "before"})
			if err := k.Load(bytes.NewReader(file), password); err != nil {
				if got := k.Aliases(); len(got) != 1 || got[0] != "before" {
					t.Fatalf("a failed Load left aliases %q, want the entry it had", got)
				}
				continue
			}
			for _, alias := range k.Aliases() {
				if _, err := k.Get(alias); err != nil {
					t.Fatalf("Get(%q) of a loaded alias: %v", alias, err)
				}
			}
			var saved bytes.Buffer
			if err := k.Save(&saved, password); err != nil {
				t.Fatalf("Save of loaded entries: %v", err)
			}
			again := NewKeystore()
			if err := again.Load(&saved, password); err != nil {
				t.Fatalf("Load of a saved keystore: %v", err)
			}
			if !reflect.DeepEqual(again.entries, k.entries) {
				t.Fatalf("round trip changed the entries:\n got %v\nwant %v", again.entries, k.entries)
			}
		}
	})
}
