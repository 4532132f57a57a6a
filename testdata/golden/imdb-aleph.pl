% golden learned theory — regenerate with: go test -run TestGoldenTheories -update
%% dataset=imdb scale=0.1 seed=1 method=aleph workers=1 pos=12 neg=60
dramaDirector(V0) :- personNationality(V0,country_0006).
dramaDirector(V0) :- wrote(V0,V13), movieCountry(V13,country_0018), movieCert(V13,cert_r).
dramaDirector(V0) :- composedFor(V0,V2), movieCountry(V2,country_0018), movieRating(V2,r_3).
