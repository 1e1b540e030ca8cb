type id = int

type role =
  | Core
  | Aggregation
  | Edge
  | Host

type t = {
  id : id;
  name : string;
  role : role;
}

let make ?(role = Core) id name = { id; name; role }

