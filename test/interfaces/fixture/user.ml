module F = Fixture
module S = Set.Make (Fixture.Key)

let value = F.entry (S.cardinal (S.singleton 1))
