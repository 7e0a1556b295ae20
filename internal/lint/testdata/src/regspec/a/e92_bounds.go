package a

import core "vmmk/internal/core"

func init() {
	core.Register(core.Spec{
		ID:    "e92",
		Title: "defaults must sit inside the declared bounds",
		Params: []core.Param{
			{Name: "n", Kind: core.ParamInt, Unit: "ops", Help: "count",
				DefaultInt: 200, Max: 100}, // want `DefaultInt 200 is outside`
			{Name: "list", Kind: core.ParamIntList, Unit: "cores", Help: "cores", Max: 8,
				DefaultList: []int{1,
					16}}, // want `DefaultList entry 16 is outside`
		},
		Run: run92,
	})
}

func run92(_ *core.Runner, _ core.Params) (*core.Result, error) {
	return nil, nil
}
