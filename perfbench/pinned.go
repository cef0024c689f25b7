package main

// pinnedDigest is the matrix digest of each workload at defaultSeed: the
// sha256 over every cell's label and stats.Run JSON, in matrix order. A
// change meant to alter simulated behaviour re-pins it and says so; any
// other change that moves it is a bug.
var pinnedDigest = map[string]string{
	"paper-dside":    "8fd96a73174cb24df3b9edfeb082d6f6431cede9dd901903eaefc7634de8a4c1",
	"iside-frontend": "c449d9412d379523a83f8d49d9cb72628d345b32848aa25bfcbb480424c37369",
	"service-fabric": "545811fa54cc5223d7af5c630a0cbab7d7603950265440fd45964be1bf851763",
}

// pinnedSweepFP is the fabric fingerprint (fabric.Fingerprint, as the
// sweep's summary line reports it) of each streamed sweep of the service
// phase. The sweeps run at fixed seeds, so these hold for every --seed.
var pinnedSweepFP = map[string][]string{
	"paper-dside": {
		"1278fdbfcc46d73a47468b9bb6419da863c0ce7998cd4c756f04e661c20670a4",
		"e24b9cf1203213fa4757e5b3310423014902d2e37e8c754236d65de7d8b1364d",
		"85f0706cddccc380b6a6ebea833cf2df226c067e5466be85ac910b957e3ec3c6",
		"722d0f21ee9a7fefa6b14c69eca4912455cad9a46fcc5f57f7aaec63927cee50",
		"c20323d2618db3df710fdc311d6c3ff4bf4d335092294e89660afa71ee00b8b4",
	},
	"iside-frontend": {
		"b5b544e024ef26547af8a3dd68e89d58d5a029384534b6b9968b102e54c70d78",
		"c1e5c502e815fdc8794e0fb09bbbfbfe28c5cbf39dfd9779066fb2a27a80c337",
		"14e3d7608f5da897a9d91693d2a97b9ffb4714d7cf9254d7286e17f9b8e3c6b9",
		"c0113106e2a4ae27fd22badf5e1a2baef59725328fa176795f303add019143ca",
		"8f2f71543b16d8e0859a8bfb292d57f386876d8911d4949ce3e0afbe8298378f",
	},
	"service-fabric": {
		"075050ad857faa273ca2700984897e9ab2f1264cfecca513c03ddbb2b347bdc3",
		"408cd6c5ac808f9083f602e6629d6936a98a781ef714edb5847fdbb76bbf621b",
		"00a44d09602d8d9773713586deb9d9dd5131705e4c3dae60018d4ab0aa86de0c",
		"e4681ff1f5d4e303c981f35dad1855b00dc61fd58edaad0d33fec3b7f65b282c",
		"f871a69af04f22d3fb545e7f8bf74b1ef89fc318b635f47f609a1da8847a536a",
	},
}
