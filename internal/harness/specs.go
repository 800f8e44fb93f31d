package harness

import (
	"fmt"

	"svbench/internal/db"
	"svbench/internal/ir"
	"svbench/internal/langrt"
	"svbench/internal/rpc"
	"svbench/internal/vswarm"
)

// The experiment catalog: every benchmark of the thesis's evaluation as a
// harness Spec. Names follow the thesis's labels (fibonacci-go,
// aes-python, emailservice-P, geo, profile, ...).

func static(build func() *ir.Module) func(*Env) (*ir.Module, error) {
	return func(*Env) (*ir.Module, error) { return build(), nil }
}

// StandaloneSpecs returns the nine standalone functions (three functions
// across three runtimes, Table 3.2).
func StandaloneSpecs() []Spec {
	kinds := []struct {
		name  string
		build func() *ir.Module
		req   []byte
		check func(*rpc.Reader) error
	}{
		{"fibonacci", vswarm.Fibonacci, vswarm.FibRequest(vswarm.DefaultFibN), func(r *rpc.Reader) error {
			v, err := r.Int()
			if err != nil {
				return err
			}
			if v != 832040 {
				return fmt.Errorf("fib(30) = %d", v)
			}
			return nil
		}},
		{"aes", vswarm.AES, vswarm.AESRequest(vswarm.DefaultAESPayload), func(r *rpc.Reader) error {
			b, err := r.Bytes()
			if err != nil {
				return err
			}
			if len(b) != vswarm.DefaultAESPayload {
				return fmt.Errorf("cipher length %d", len(b))
			}
			return nil
		}},
		{"auth", vswarm.Auth, vswarm.AuthRequestMsg(3, true), func(r *rpc.Reader) error {
			ok, err := r.Int()
			if err != nil {
				return err
			}
			if ok != 1 {
				return fmt.Errorf("auth denied")
			}
			return nil
		}},
	}
	var specs []Spec
	for _, k := range kinds {
		for _, rt := range langrt.Runtimes {
			k := k
			specs = append(specs, Spec{
				Name:    fmt.Sprintf("%s-%s", k.name, rt),
				Runtime: rt,
				Build:   static(k.build),
				Request: func() []byte { return k.req },
				Check:   k.check,
			})
		}
	}
	return specs
}

// FibMod64 computes fib(n) mod 2^64, the workload's natural wrap — the
// expected response of a scaled fibonacci request.
func FibMod64(n int) uint64 {
	var x, y uint64 = 0, 1
	for i := 0; i < n; i++ {
		x, y = y, x+y
	}
	return x
}

// ScaledFibSpec returns a fibonacci Spec with an explicit iteration count.
// The default catalog entry runs fib(30) — a few thousand instructions per
// request, far below one SMARTS sampling interval. The sampling studies
// (figures.SamplingSpecs: the figures sampling table, perfbench's
// sampled-eval) scale n up so each stats window spans many intervals,
// which is the regime sampled simulation is designed for.
func ScaledFibSpec(rt langrt.Runtime, n int) Spec {
	want := FibMod64(n)
	return Spec{
		Name:    fmt.Sprintf("fibonacci-%s-n%d", rt, n),
		Runtime: rt,
		Build:   static(vswarm.Fibonacci),
		Request: func() []byte { return vswarm.FibRequest(n) },
		Check: func(r *rpc.Reader) error {
			v, err := r.Int()
			if err != nil {
				return err
			}
			if v != want {
				return fmt.Errorf("fib(%d) = %d, want %d", n, v, want)
			}
			return nil
		},
	}
}

// ScaledAESSpec returns an aes Spec with an explicit payload size (the
// catalog default is 64 bytes). See ScaledFibSpec for why the sampling
// studies scale the request up.
func ScaledAESSpec(rt langrt.Runtime, payload int) Spec {
	return Spec{
		Name:    fmt.Sprintf("aes-%s-p%d", rt, payload),
		Runtime: rt,
		Build:   static(vswarm.AES),
		Request: func() []byte { return vswarm.AESRequest(payload) },
		Check: func(r *rpc.Reader) error {
			b, err := r.Bytes()
			if err != nil {
				return err
			}
			if len(b) != payload {
				return fmt.Errorf("cipher length %d, want %d", len(b), payload)
			}
			return nil
		},
	}
}

// ShopSpecs returns the six Online Shop functions (Table 3.3).
func ShopSpecs() []Spec {
	expectCount := func(min uint64) func(*rpc.Reader) error {
		return func(r *rpc.Reader) error {
			n, err := r.Int()
			if err != nil {
				return err
			}
			if n < min {
				return fmt.Errorf("count %d < %d", n, min)
			}
			return nil
		}
	}
	return []Spec{
		{
			Name: "productcatalog-go", Runtime: langrt.GoRT,
			Build:   static(vswarm.ProductCatalog),
			Request: func() []byte { return vswarm.CatalogRequest("camera") },
			Check:   expectCount(1),
		},
		{
			Name: "shipping-go", Runtime: langrt.GoRT,
			Build:   static(vswarm.Shipping),
			Request: func() []byte { return vswarm.ShippingRequest(94107, [][2]int{{0, 2}, {3, 1}, {7, 4}}) },
			Check: func(r *rpc.Reader) error {
				q, err := r.Int()
				if err != nil {
					return err
				}
				if q == 0 {
					return fmt.Errorf("zero quote")
				}
				return nil
			},
		},
		{
			Name: "recommendation-python", Runtime: langrt.PyRT,
			Build:   static(vswarm.Recommendation),
			Request: func() []byte { return vswarm.RecommendationRequest(4242, 3) },
			Check:   expectCount(3),
		},
		{
			Name: "emailservice-python", Runtime: langrt.PyRT,
			Build:   static(vswarm.Email),
			Request: func() []byte { return vswarm.EmailRequest("Ada", 31415) },
			Check: func(r *rpc.Reader) error {
				b, err := r.Bytes()
				if err != nil {
					return err
				}
				if len(b) < len("Hello Ada") {
					return fmt.Errorf("rendered %d bytes", len(b))
				}
				return nil
			},
		},
		{
			Name: "currency-nodejs", Runtime: langrt.NodeRT,
			Build:   static(vswarm.Currency),
			Request: func() []byte { return vswarm.CurrencyRequest(125_000_000, 0, 2) },
			Check: func(r *rpc.Reader) error {
				v, err := r.Int()
				if err != nil {
					return err
				}
				want := 125_000_000 * uint64(1000000) / 1310000
				if v != want {
					return fmt.Errorf("converted %d, want %d", v, want)
				}
				return nil
			},
		},
		{
			Name: "payment-nodejs", Runtime: langrt.NodeRT,
			Build:   static(vswarm.Payment),
			Request: func() []byte { return vswarm.PaymentRequest(vswarm.ValidCard(), 19_99) },
			Check: func(r *rpc.Reader) error {
				ok, err := r.Int()
				if err != nil {
					return err
				}
				if ok != 1 {
					return fmt.Errorf("valid card rejected")
				}
				return nil
			},
		},
	}
}

// HotelEngine selects the Hotel application's database backend.
type HotelEngine string

// Supported hotel backends: Cassandra is the ported configuration
// (§3.3.3); MongoDB is the original upstream dependency, runnable only in
// functional/QEMU mode in the thesis; MariaDB was the abandoned
// alternative.
const (
	EngineCassandra HotelEngine = "cassandra"
	EngineMongo     HotelEngine = "mongodb"
	EngineMariaDB   HotelEngine = "mariadb"
)

func newEngine(e HotelEngine) db.Store {
	switch e {
	case EngineMongo:
		return db.NewMongo()
	case EngineMariaDB:
		return db.NewMariaDB()
	default:
		return db.NewCassandra(db.CassandraConfig{})
	}
}

// HotelSpec builds the Spec for one hotel function on the given backend.
func HotelSpec(fnName string, engine HotelEngine) Spec {
	var entry *struct {
		Name      string
		Memcached bool
		Build     func(vswarm.HotelChans) *ir.Module
	}
	for i := range vswarm.HotelFuncs {
		if vswarm.HotelFuncs[i].Name == fnName {
			entry = &vswarm.HotelFuncs[i]
			break
		}
	}
	if entry == nil {
		panic("harness: unknown hotel function " + fnName)
	}
	var req []byte
	var check func(*rpc.Reader) error
	switch fnName {
	case "geo":
		lat, lon := vswarm.HotelGeo(0)
		req = vswarm.GeoRequest(lat+30, lon+40)
		check = func(r *rpc.Reader) error {
			n, err := r.Int()
			if err != nil {
				return err
			}
			if n != 5 {
				return fmt.Errorf("geo returned %d", n)
			}
			first, err := r.Int()
			if err != nil {
				return err
			}
			if first != vswarm.HotelID(0) {
				return fmt.Errorf("nearest hotel %d, want %d", first, vswarm.HotelID(0))
			}
			return nil
		}
	case "recommendation":
		lat, lon := vswarm.HotelGeo(3)
		req = vswarm.RecommendRequest(0, lat, lon)
		check = func(r *rpc.Reader) error {
			n, err := r.Int()
			if err != nil {
				return err
			}
			if n != 5 {
				return fmt.Errorf("recommendation returned %d", n)
			}
			return nil
		}
	case "user":
		req = vswarm.UserRequest(2, true)
		check = func(r *rpc.Reader) error {
			ok, err := r.Int()
			if err != nil {
				return err
			}
			if ok != 1 {
				return fmt.Errorf("login rejected")
			}
			return nil
		}
	case "rate":
		req = vswarm.RateRequest(20260801, 20260805, 4, 8, 12)
		check = func(r *rpc.Reader) error {
			n, err := r.Int()
			if err != nil {
				return err
			}
			if n != 3 {
				return fmt.Errorf("rate count %d", n)
			}
			for _, h := range []int{4, 8, 12} {
				b, err := r.Bytes()
				if err != nil {
					return err
				}
				if string(b) != string(vswarm.HotelRatePlans(h)) {
					return fmt.Errorf("rate plans mismatch for hotel %d", h)
				}
			}
			return nil
		}
	case "profile":
		req = vswarm.ProfileRequest(1, 5, 9)
		check = func(r *rpc.Reader) error {
			n, err := r.Int()
			if err != nil {
				return err
			}
			if n != 3 {
				return fmt.Errorf("profile count %d", n)
			}
			for _, h := range []int{1, 5, 9} {
				b, err := r.Bytes()
				if err != nil {
					return err
				}
				if string(b) != string(vswarm.HotelProfile(h)) {
					return fmt.Errorf("profile %d mismatch", h)
				}
			}
			return nil
		}
	case "reservation":
		req = vswarm.ReservationRequest(6, 20260801, 20260805, 1)
		check = func(r *rpc.Reader) error {
			ok, err := r.Int()
			if err != nil {
				return err
			}
			if ok != 1 {
				return fmt.Errorf("reservation rejected")
			}
			return nil
		}
	}
	build := entry.Build
	usesMC := entry.Memcached
	return Spec{
		Name:    fnName,
		Runtime: langrt.GoRT,
		Build: func(env *Env) (*ir.Module, error) {
			store := newEngine(engine)
			vswarm.SeedHotel(store)
			dbReq, dbResp := env.NewService(db.NewService(store))
			ch := vswarm.HotelChans{DBReq: dbReq, DBResp: dbResp}
			// Every hotel function gets a Memcached instance wired; the
			// non-caching trio simply never talks to it (Table 3.4).
			mc := db.NewMemcached(db.MemcachedConfig{})
			ch.MCReq, ch.MCResp = env.NewService(db.NewService(mc))
			_ = usesMC
			return build(ch), nil
		},
		Request: func() []byte { return req },
		Check:   check,
	}
}

// HotelSpecs returns all six hotel functions on the given backend.
func HotelSpecs(engine HotelEngine) []Spec {
	var out []Spec
	for _, f := range vswarm.HotelFuncs {
		out = append(out, HotelSpec(f.Name, engine))
	}
	return out
}

// AllSpecs returns the complete catalog: standalone, shop and hotel (on
// Cassandra).
func AllSpecs() []Spec {
	specs := StandaloneSpecs()
	specs = append(specs, ShopSpecs()...)
	specs = append(specs, HotelSpecs(EngineCassandra)...)
	return specs
}
