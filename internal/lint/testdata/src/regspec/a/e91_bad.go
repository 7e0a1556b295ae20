package a

import core "vmmk/internal/core"

func init() {
	core.Register(core.Spec{ // want `missing Title` `missing Run`
		ID: "e91",
		Params: []core.Param{
			{Name: "n", Kind: core.ParamInt, DefaultInt: 100}, // want `missing Help` `missing Unit` `missing Max`
		},
	})
}

// alsoRegisters breaks the one-registration-per-file rule twice over: a
// second Register call, and one outside init.
func alsoRegisters() {
	core.Register(core.Spec{ // want `registers 2 core.Specs` `outside init`
		ID:    "e91b",
		Title: "duplicate registration",
		Run:   run91,
	})
}

func run91(_ *core.Runner, _ core.Params) (*core.Result, error) {
	return nil, nil
}
