package figures

import (
	"fmt"

	"svbench/internal/container"
	"svbench/internal/ir"
	"svbench/internal/isa"
	"svbench/internal/langrt"
	"svbench/internal/libc"
	"svbench/internal/vswarm"
)

// imageSpec describes one image of the size tables.
type ImageSpec struct {
	Name    string
	Runtime langrt.Runtime
	Build   func() *ir.Module
	Shop    bool
	AuthDep bool
}

func ImageCatalog() []ImageSpec {
	var out []ImageSpec
	std := []struct {
		fn    string
		build func() *ir.Module
	}{
		{"Fibonacci", vswarm.Fibonacci}, {"Aes", vswarm.AES}, {"Auth", vswarm.Auth},
	}
	rts := []struct {
		rt    langrt.Runtime
		label string
	}{{langrt.GoRT, "Go"}, {langrt.PyRT, "Python"}, {langrt.NodeRT, "NodeJs"}}
	for _, s := range std {
		for _, r := range rts {
			out = append(out, ImageSpec{
				Name:    fmt.Sprintf("%s-%s", s.fn, r.label),
				Runtime: r.rt,
				Build:   s.build,
				AuthDep: s.fn == "Auth" && r.rt == langrt.NodeRT,
			})
		}
	}
	out = append(out,
		ImageSpec{Name: "Product-Catalog-service-Go", Runtime: langrt.GoRT, Build: vswarm.ProductCatalog, Shop: true},
		ImageSpec{Name: "Shipping-service-Go", Runtime: langrt.GoRT, Build: vswarm.Shipping, Shop: true},
		ImageSpec{Name: "Recommendation-service-Python", Runtime: langrt.PyRT, Build: vswarm.Recommendation, Shop: true},
		ImageSpec{Name: "Email-service-Python", Runtime: langrt.PyRT, Build: vswarm.Email, Shop: true},
		ImageSpec{Name: "Currency-service-NodeJs", Runtime: langrt.NodeRT, Build: vswarm.Currency, Shop: true},
		ImageSpec{Name: "Payment-service-NodeJs", Runtime: langrt.NodeRT, Build: vswarm.Payment, Shop: true},
	)
	for _, hf := range vswarm.HotelFuncs {
		build := hf.Build
		out = append(out, ImageSpec{
			Name:    fmt.Sprintf("%s-Go", titleCase(hf.Name)),
			Runtime: langrt.GoRT,
			Build:   func() *ir.Module { return build(vswarm.HotelChans{}) },
		})
	}
	return out
}

func titleCase(s string) string {
	if s == "" {
		return s
	}
	return string(s[0]-'a'+'A') + s[1:]
}

// BuildFunctionImage assembles a complete container image (base layers +
// compiled server program) for one workload.
func BuildFunctionImage(sp ImageSpec, arch isa.Arch, prof container.Profile) (*container.Image, error) {
	mod, err := langrt.BuildServer(sp.Runtime, libc.ForArch(string(arch)), sp.Build(), vswarm.Handler)
	if err != nil {
		return nil, err
	}
	return container.BuildImage(sp.Name, sp.Runtime, arch, mod, container.ImageOpts{
		Shop: sp.Shop, AuthDep: sp.AuthDep, Profile: prof,
	})
}

const kb = 1024.0

// Table44 reproduces the container compressed-size comparison (x86 vs
// RISC-V) on sweep.DefaultJobs() workers. Values are in KiB; at the
// repository's documented 1:1000 scale a KiB corresponds to a MB of
// Table 4.4.
func Table44() (Data, error) { return table44(0) }

func table44(jobs int) (Data, error) {
	d := Data{ID: "table4.4", Title: "Container compressed size (KiB; 1 KiB ~ 1 MB of the thesis)",
		Columns: []string{"x86", "riscv"}}
	specs := ImageCatalog()
	arches := []isa.Arch{isa.CISC64, isa.RV64}
	// Cell i is specs[i/2] on arches[i%2].
	sizes, err := cells(2*len(specs), jobs, func(i int) (float64, error) {
		sp, arch := specs[i/2], arches[i%2]
		img, err := BuildFunctionImage(sp, arch, container.GPourProfile)
		if err != nil {
			return 0, fmt.Errorf("table4.4 %s/%s: %w", sp.Name, arch, err)
		}
		return float64(img.CompressedSize()) / kb, nil
	})
	if err != nil {
		return d, err
	}
	for i, sp := range specs {
		d.Rows = append(d.Rows, Row{Label: sp.Name, Values: sizes[2*i : 2*i+2 : 2*i+2]})
	}
	return d, nil
}

// Table45 reproduces the RISC-V image size comparison against the prior
// "Natheesan" Docker Hub port (standalone + shop images only, as in the
// thesis) on sweep.DefaultJobs() workers.
func Table45() (Data, error) { return table45(0) }

func table45(jobs int) (Data, error) {
	d := Data{ID: "table4.5", Title: "RISC-V container compressed size: prior port vs ours (KiB)",
		Columns: []string{"natheesan", "gpour"}}
	var specs []ImageSpec
	for _, sp := range ImageCatalog() {
		if len(sp.Name) > 3 && sp.Name[len(sp.Name)-3:] == "-Go" && !sp.Shop {
			// Hotel images are excluded: the prior port's hotel images
			// could not run (§4.2.6).
			if sp.Name != "Fibonacci-Go" && sp.Name != "Aes-Go" && sp.Name != "Auth-Go" {
				continue
			}
		}
		specs = append(specs, sp)
	}
	profs := []container.Profile{container.NatheesanProfile, container.GPourProfile}
	// Cell i is specs[i/2] under profs[i%2].
	sizes, err := cells(2*len(specs), jobs, func(i int) (float64, error) {
		sp := specs[i/2]
		img, err := BuildFunctionImage(sp, isa.RV64, profs[i%2])
		if err != nil {
			return 0, fmt.Errorf("table4.5 %s: %w", sp.Name, err)
		}
		return float64(img.CompressedSize()) / kb, nil
	})
	if err != nil {
		return d, err
	}
	for i, sp := range specs {
		d.Rows = append(d.Rows, Row{Label: sp.Name, Values: sizes[2*i : 2*i+2 : 2*i+2]})
	}
	return d, nil
}
